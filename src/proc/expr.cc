#include "proc/expr.h"

#include "common/macros.h"

namespace pacman::proc {

ExprPtr Expr::Constant(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kConstant));
  e->constant_ = std::move(v);
  return e;
}

ExprPtr Expr::Param(int index) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kParam));
  e->index_ = index;
  return e;
}

ExprPtr Expr::Field(int local, int column) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kField));
  e->index_ = local;
  e->column_ = column;
  return e;
}

ExprPtr Expr::LocalExists(int local) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kLocalExists));
  e->index_ = local;
  return e;
}

ExprPtr Expr::Binary(ExprKind kind, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(kind));
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kNot));
  e->children_.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::Pack(std::vector<ExprPtr> children, std::vector<int> bits) {
  PACMAN_CHECK(children.size() == bits.size());
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kPack));
  e->children_ = std::move(children);
  e->pack_bits_ = std::move(bits);
  return e;
}

bool ValueTruthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return v.AsInt64() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kString:
      return !v.AsStringView().empty();
  }
  return false;
}

int CompareValues(const Value& a, const Value& b) {
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    return a.AsStringView().compare(b.AsStringView());
  }
  double da = a.AsDouble(), db = b.AsDouble();
  if (da < db) return -1;
  if (da > db) return 1;
  return 0;
}

void Expr::CollectRefs(std::vector<int>* params,
                       std::vector<int>* locals) const {
  switch (kind_) {
    case ExprKind::kParam:
      params->push_back(index_);
      break;
    case ExprKind::kField:
    case ExprKind::kLocalExists:
      locals->push_back(index_);
      break;
    default:
      break;
  }
  for (const ExprPtr& c : children_) c->CollectRefs(params, locals);
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kConstant:
      return constant_.ToString();
    case ExprKind::kParam:
      return "p" + std::to_string(index_);
    case ExprKind::kField:
      return "l" + std::to_string(index_) + "." + std::to_string(column_);
    case ExprKind::kLocalExists:
      return "exists(l" + std::to_string(index_) + ")";
    case ExprKind::kNot:
      return "!(" + children_[0]->ToString() + ")";
    case ExprKind::kMod:
      return "(" + children_[0]->ToString() + " % " +
             children_[1]->ToString() + ")";
    case ExprKind::kPack: {
      std::string s = "pack(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) s += ",";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
    default: {
      static const char* ops[] = {"", "", "", "", "+", "-", "*", "==",
                                  "!=", "<", "<=", ">", ">=", "&&", "||"};
      return "(" + children_[0]->ToString() + " " +
             ops[static_cast<int>(kind_)] + " " + children_[1]->ToString() +
             ")";
    }
  }
}

}  // namespace pacman::proc
