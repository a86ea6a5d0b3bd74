#include "proc/bytecode.h"

#include "common/macros.h"
#include "proc/expr.h"
#include "storage/table.h"

namespace pacman::proc {

namespace {

// Null source for register resets: copy-assigning it clears the
// destination's type but keeps any string capacity the register
// accumulated (Value::operator= from a non-string never shrinks s_), so a
// hot register stays allocation-free across transactions.
const Value kNullValue;

inline const Value& OperandValue(const VmState& st, Operand o) {
  const uint16_t idx = o & kOperandIndexMask;
  switch (o & kOperandTagMask) {
    case kOperandReg:
      return st.regs[idx];
    case kOperandConst:
      return st.prog->constants[idx];
    default:
      PACMAN_DCHECK((o & kOperandTagMask) == kOperandParam);
      PACMAN_DCHECK(idx < st.params->size());
      return (*st.params)[idx];
  }
}

inline Key OperandKey(const VmState& st, Operand o) {
  const Value& v = OperandValue(st, o);
  PACMAN_DCHECK(!v.is_null());
  return static_cast<Key>(v.AsInt64());
}

inline Value BoolValue(bool b) { return Value(static_cast<int64_t>(b)); }

// Executes [pc, end). `access` may be null for pure ranges (guards, keys,
// results), which the compiler guarantees contain no data-access opcodes.
Status RunRange(VmState* st, AccessContext* access, uint32_t pc,
                uint32_t end) {
  const CompiledProgram& prog = *st->prog;
  const Instr* code = prog.code.data();
  Value* regs = st->regs;
  const Row** locals = st->locals;
  while (pc < end) {
    const Instr& ins = code[pc];
    switch (ins.op) {
      case BcOp::kLoadField: {
        const Row* row = locals[ins.a];
        if (row != nullptr && ins.b < row->size()) {
          regs[ins.dst] = (*row)[ins.b];
        } else {
          regs[ins.dst] = kNullValue;
        }
        break;
      }
      case BcOp::kLoadExists:
        regs[ins.dst] = BoolValue(locals[ins.a] != nullptr);
        break;
      case BcOp::kAdd:
        regs[ins.dst] =
            OperandValue(*st, ins.a).Add(OperandValue(*st, ins.b));
        break;
      case BcOp::kSub:
        regs[ins.dst] =
            OperandValue(*st, ins.a).Sub(OperandValue(*st, ins.b));
        break;
      case BcOp::kMul:
        regs[ins.dst] =
            OperandValue(*st, ins.a).Mul(OperandValue(*st, ins.b));
        break;
      case BcOp::kEq:
        regs[ins.dst] =
            BoolValue(OperandValue(*st, ins.a) == OperandValue(*st, ins.b));
        break;
      case BcOp::kNe:
        regs[ins.dst] =
            BoolValue(OperandValue(*st, ins.a) != OperandValue(*st, ins.b));
        break;
      case BcOp::kLt:
        regs[ins.dst] = BoolValue(
            CompareValues(OperandValue(*st, ins.a), OperandValue(*st, ins.b)) <
            0);
        break;
      case BcOp::kLe:
        regs[ins.dst] = BoolValue(
            CompareValues(OperandValue(*st, ins.a),
                          OperandValue(*st, ins.b)) <= 0);
        break;
      case BcOp::kGt:
        regs[ins.dst] = BoolValue(
            CompareValues(OperandValue(*st, ins.a), OperandValue(*st, ins.b)) >
            0);
        break;
      case BcOp::kGe:
        regs[ins.dst] = BoolValue(
            CompareValues(OperandValue(*st, ins.a),
                          OperandValue(*st, ins.b)) >= 0);
        break;
      case BcOp::kAnd:
        regs[ins.dst] = BoolValue(ValueTruthy(OperandValue(*st, ins.a)) &&
                                  ValueTruthy(OperandValue(*st, ins.b)));
        break;
      case BcOp::kOr:
        regs[ins.dst] = BoolValue(ValueTruthy(OperandValue(*st, ins.a)) ||
                                  ValueTruthy(OperandValue(*st, ins.b)));
        break;
      case BcOp::kNot:
        regs[ins.dst] = BoolValue(!ValueTruthy(OperandValue(*st, ins.a)));
        break;
      case BcOp::kMod: {
        const int64_t a = OperandValue(*st, ins.a).AsInt64();
        const int64_t m = OperandValue(*st, ins.b).AsInt64();
        PACMAN_DCHECK(m > 0);
        regs[ins.dst] = Value(((a % m) + m) % m);
        break;
      }
      case BcOp::kPack: {
        uint64_t key = 0;
        const uint16_t* pairs = prog.aux.data() + ins.a;
        for (uint16_t i = 0; i < ins.b; ++i) {
          const Value& v = OperandValue(*st, pairs[2 * i]);
          const int64_t part = v.is_null() ? 0 : v.AsInt64();
          PACMAN_DCHECK(part >= 0);
          key = (key << pairs[2 * i + 1]) | static_cast<uint64_t>(part);
        }
        regs[ins.dst] = Value(static_cast<int64_t>(key));
        break;
      }
      case BcOp::kJumpIfFalse:
        if (!ValueTruthy(OperandValue(*st, ins.a))) {
          pc = ins.dst;
          continue;
        }
        break;
      case BcOp::kReadRow: {
        PACMAN_DCHECK(access != nullptr);
        const Key key = OperandKey(*st, ins.b);
        Row* buf = st->rows != nullptr ? &st->rows[ins.dst] : nullptr;
        const Row* view = nullptr;
        Status s = access->ReadView(prog.tables[ins.a],
                                    prog.table_ids[ins.a], key, buf, &view);
        if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
        locals[ins.dst] = s.ok() ? view : nullptr;
        break;
      }
      case BcOp::kBeginRow:
        if (ins.a != kNoBaseLocal && locals[ins.a] != nullptr) {
          *st->scratch = *locals[ins.a];
        } else {
          st->scratch->clear();
        }
        break;
      case BcOp::kSetCol: {
        Row& row = *st->scratch;
        if (ins.a >= row.size()) row.resize(ins.a + 1);
        row[ins.a] = OperandValue(*st, ins.b);
        break;
      }
      case BcOp::kAppendCol:
        st->scratch->push_back(OperandValue(*st, ins.a));
        break;
      case BcOp::kWriteRow: {
        PACMAN_DCHECK(access != nullptr);
        const Key key = OperandKey(*st, ins.b);
        access->WriteTable(prog.tables[ins.a], prog.table_ids[ins.a], key,
                           std::move(*st->scratch), false, ins.c != 0);
        st->scratch->clear();
        break;
      }
      case BcOp::kDeleteRow: {
        PACMAN_DCHECK(access != nullptr);
        const Key key = OperandKey(*st, ins.b);
        access->WriteTable(prog.tables[ins.a], prog.table_ids[ins.a], key,
                           {}, true, false);
        break;
      }
    }
    ++pc;
  }
  return Status::Ok();
}

inline bool AllPresent(const VmState& st,
                       const std::vector<uint16_t>& locals) {
  for (uint16_t l : locals) {
    if (st.locals[l] == nullptr) return false;
  }
  return true;
}

}  // namespace

Status VmExecuteOps(const std::vector<OpIndex>& op_indices, VmState* state,
                    AccessContext* access) {
  const CompiledProgram& prog = *state->prog;
  for (OpIndex oi : op_indices) {
    PACMAN_DCHECK(oi < prog.ops.size());
    const CompiledOp& op = prog.ops[oi];
    Status s = RunRange(state, access, op.begin, op.end);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status VmExecuteAll(VmState* state, AccessContext* access) {
  const CompiledProgram& prog = *state->prog;
  return RunRange(state, access, prog.body_begin, prog.body_end);
}

std::vector<Value> VmEvalResults(VmState* state) {
  const CompiledProgram& prog = *state->prog;
  std::vector<Value> out;
  out.reserve(prog.results.size());
  for (const CompiledResult& r : prog.results) {
    if (!AllPresent(*state, r.field_locals)) {
      out.push_back(Value::Null());
      continue;
    }
    Status s = RunRange(state, nullptr, r.begin, r.end);
    PACMAN_DCHECK(s.ok());
    (void)s;
    out.push_back(OperandValue(*state, r.operand));
  }
  return out;
}

bool VmTryExtractAccessSet(const std::vector<OpIndex>& op_indices,
                           VmState* state,
                           std::vector<std::pair<TableId, Key>>* out) {
  const CompiledProgram& prog = *state->prog;
  out->clear();
  for (OpIndex oi : op_indices) {
    const CompiledOp& op = prog.ops[oi];
    if (op.has_guard && AllPresent(*state, op.guard_field_locals)) {
      Status s = RunRange(state, nullptr, op.guard_begin, op.guard_end);
      PACMAN_DCHECK(s.ok());
      (void)s;
      if (!ValueTruthy(OperandValue(*state, op.guard_operand))) {
        continue;  // Guarded out: no access.
      }
    }
    // An unresolvable guard conservatively includes the op's key (the op
    // may or may not execute but can only touch that key) — but the key
    // itself must be computable now, else the caller falls back to
    // conservative ordering (footnote 4).
    if (!AllPresent(*state, op.key_field_locals)) return false;
    Status s = RunRange(state, nullptr, op.key_begin, op.key_end);
    PACMAN_DCHECK(s.ok());
    (void)s;
    out->emplace_back(op.table, OperandKey(*state, op.key_operand));
  }
  return true;
}

namespace {

const char* BcOpName(BcOp op) {
  switch (op) {
    case BcOp::kLoadField: return "load_field";
    case BcOp::kLoadExists: return "load_exists";
    case BcOp::kAdd: return "add";
    case BcOp::kSub: return "sub";
    case BcOp::kMul: return "mul";
    case BcOp::kEq: return "eq";
    case BcOp::kNe: return "ne";
    case BcOp::kLt: return "lt";
    case BcOp::kLe: return "le";
    case BcOp::kGt: return "gt";
    case BcOp::kGe: return "ge";
    case BcOp::kAnd: return "and";
    case BcOp::kOr: return "or";
    case BcOp::kNot: return "not";
    case BcOp::kMod: return "mod";
    case BcOp::kPack: return "pack";
    case BcOp::kJumpIfFalse: return "jump_if_false";
    case BcOp::kReadRow: return "read_row";
    case BcOp::kBeginRow: return "begin_row";
    case BcOp::kSetCol: return "set_col";
    case BcOp::kAppendCol: return "append_col";
    case BcOp::kWriteRow: return "write_row";
    case BcOp::kDeleteRow: return "delete_row";
  }
  return "?";
}

std::string OperandName(Operand o) {
  const uint16_t idx = o & kOperandIndexMask;
  switch (o & kOperandTagMask) {
    case kOperandConst:
      return "c" + std::to_string(idx);
    case kOperandParam:
      return "p" + std::to_string(idx);
    default:
      return "r" + std::to_string(idx);
  }
}

}  // namespace

std::string DisassembleProgram(const CompiledProgram& prog) {
  std::string out = prog.def->name + ": " +
                    std::to_string(prog.code.size()) + " instrs, " +
                    std::to_string(prog.num_regs) + " regs, " +
                    std::to_string(prog.constants.size()) + " consts\n";
  for (uint32_t pc = 0; pc < prog.code.size(); ++pc) {
    const Instr& ins = prog.code[pc];
    out += "  " + std::to_string(pc) + ": " + BcOpName(ins.op);
    switch (ins.op) {
      case BcOp::kLoadField:
        out += " r" + std::to_string(ins.dst) + ", l" +
               std::to_string(ins.a) + "." + std::to_string(ins.b);
        break;
      case BcOp::kLoadExists:
        out += " r" + std::to_string(ins.dst) + ", l" + std::to_string(ins.a);
        break;
      case BcOp::kJumpIfFalse:
        out += " " + OperandName(ins.a) + ", ->" + std::to_string(ins.dst);
        break;
      case BcOp::kReadRow:
        out += " l" + std::to_string(ins.dst) + ", t" +
               std::to_string(ins.a) + "[" + OperandName(ins.b) + "]";
        break;
      case BcOp::kBeginRow:
        out += ins.a == kNoBaseLocal ? " (fresh)"
                                     : " l" + std::to_string(ins.a);
        break;
      case BcOp::kSetCol:
        out += " col" + std::to_string(ins.a) + " = " + OperandName(ins.b);
        break;
      case BcOp::kAppendCol:
        out += " " + OperandName(ins.a);
        break;
      case BcOp::kWriteRow:
      case BcOp::kDeleteRow:
        out += " t" + std::to_string(ins.a) + "[" + OperandName(ins.b) + "]";
        if (ins.op == BcOp::kWriteRow && ins.c != 0) out += " insert";
        break;
      case BcOp::kPack:
        out += " r" + std::to_string(ins.dst) + ", aux[" +
               std::to_string(ins.a) + ".." +
               std::to_string(ins.a + 2 * ins.b) + ")";
        break;
      case BcOp::kNot:
        out += " r" + std::to_string(ins.dst) + ", " + OperandName(ins.a);
        break;
      default:
        out += " r" + std::to_string(ins.dst) + ", " + OperandName(ins.a) +
               ", " + OperandName(ins.b);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace pacman::proc
