// Copyright (c) 2026 The PACMAN reproduction authors.
// Expression trees for stored procedures.
//
// The paper models procedures as structured flows of read/write operations
// whose keys and values are computed from procedure parameters and from
// values returned by earlier reads (§3). Expressions make those data flows
// explicit, which is what both the static analysis (define-use relations,
// §4.1.1) and the dynamic analysis (runtime key-space extraction, §4.3.1)
// consume. Nothing evaluates the trees directly: the compiler
// (proc/compiler.h) lowers them to bytecode once per procedure.
#ifndef PACMAN_PROC_EXPR_H_
#define PACMAN_PROC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/value.h"

namespace pacman::proc {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// Truthiness and ordering semantics of the bytecode VM (proc/bytecode.h):
// Null and empty strings are falsy, comparisons are numeric unless both
// sides are strings.
bool ValueTruthy(const Value& v);
int CompareValues(const Value& a, const Value& b);

enum class ExprKind : uint8_t {
  kConstant,
  kParam,      // params[index]
  kField,      // locals[index][column]; Null when the local is absent.
  kLocalExists,  // 1 if locals[index] is present (its read hit), else 0.
  kAdd,
  kSub,
  kMul,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kPack,  // Key packing: fold children left-to-right, each shifted by bits.
  kMod,   // Integer modulo (used for ring-buffer key slots).
};

// Immutable expression node. Shared freely via ExprPtr.
class Expr {
 public:
  static ExprPtr Constant(Value v);
  static ExprPtr Param(int index);
  static ExprPtr Field(int local, int column);
  static ExprPtr LocalExists(int local);
  static ExprPtr Binary(ExprKind kind, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  // key = (((c0 << bits[1]) | c1) << bits[2] | c2) ... All children must
  // evaluate to non-negative integers fitting their bit width.
  static ExprPtr Pack(std::vector<ExprPtr> children, std::vector<int> bits);

  ExprKind kind() const { return kind_; }
  int index() const { return index_; }
  int column() const { return column_; }
  const Value& constant() const { return constant_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const std::vector<int>& pack_bits() const { return pack_bits_; }

  // Appends the indices of all referenced params / locals (with
  // duplicates; callers dedupe).
  void CollectRefs(std::vector<int>* params, std::vector<int>* locals) const;

  std::string ToString() const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind_;
  Value constant_;
  int index_ = -1;   // Param or local index.
  int column_ = -1;  // For kField.
  std::vector<ExprPtr> children_;
  std::vector<int> pack_bits_;
};

// Terse construction helpers used by the workload definitions.
inline ExprPtr C(int64_t v) { return Expr::Constant(Value(v)); }
inline ExprPtr C(double v) { return Expr::Constant(Value(v)); }
inline ExprPtr C(std::string v) {
  return Expr::Constant(Value(std::move(v)));
}
inline ExprPtr P(int i) { return Expr::Param(i); }
inline ExprPtr F(int local, int col) { return Expr::Field(local, col); }
inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kMul, std::move(a), std::move(b));
}
inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kNe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kGe, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kLt, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kAnd, std::move(a), std::move(b));
}
inline ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return Expr::Binary(ExprKind::kMod, std::move(a), std::move(b));
}
inline ExprPtr Exists(int local) { return Expr::LocalExists(local); }

}  // namespace pacman::proc

#endif  // PACMAN_PROC_EXPR_H_
