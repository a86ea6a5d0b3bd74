// Copyright (c) 2026 The PACMAN reproduction authors.
// Register bytecode for stored procedures: the one engine that executes
// them, in forward processing and in command-log replay (CLR / CLR-P).
//
// The compiler (proc/compiler.h) lowers each procedure's expression trees
// once, at FinalizeSchema() time, into the flat form defined here: a
// contiguous instruction vector over dense register slots, with
// constants pooled in the program and parameters referenced in place, so
// steady-state execution touches no allocator at all (registers, local
// views, copy targets and the row-build scratch come from a per-worker
// ExecArena, proc/exec_arena.h, and keep their string/row capacity across
// transactions).
//
// Locals are views: kReadRow stores a `const Row*` to the row the access
// context returned, and kLoadField / kBeginRow read through it. Replay
// (ReplayAccess) lends the newest published version's row, which is
// immutable and outlives the replay (storage/tuple.h), so recovery reads
// copy nothing; forward processing (TxnAccess) copies into the local's
// arena row because it must see its own buffered writes. A null view is
// an absent local (the read missed or has not run).
//
// Operands are 16-bit and carry their own address space in the top two
// bits: a register, a constant-pool slot or a parameter index. Constant
// and parameter leaves therefore compile to zero instructions and zero
// per-execution copies.
//
// Register discipline: every operation's instruction range is
// self-contained — it writes each scratch register before reading it and
// no register value flows between operations (cross-operation data flows
// only through the locals). This is what lets CLR-P execute different
// pieces of one transaction on different threads with nothing shared but
// the local views, and lets the compiler reuse the same low register
// numbers in every op (the register file stays a few cache lines).
//
// The VM reads and writes through an AccessContext
// (proc/access_context.h), so forward processing (TxnAccess), all five
// recovery schemes (ReplayAccess) and the §4.3.1 dynamic access-set
// primitive share it. tests/bytecode_test.cc pins its outputs to the
// golden values in tests/golden/procedure_outputs.txt.
#ifndef PACMAN_PROC_BYTECODE_H_
#define PACMAN_PROC_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "proc/access_context.h"
#include "proc/procedure.h"

namespace pacman::storage {
class Table;
}

namespace pacman::proc {

// --- Operand encoding -------------------------------------------------------
// Top two bits select the value space, low 14 bits index into it.
using Operand = uint16_t;
inline constexpr Operand kOperandReg = 0x0000;    // VmState registers.
inline constexpr Operand kOperandConst = 0x4000;  // CompiledProgram pool.
inline constexpr Operand kOperandParam = 0x8000;  // Caller's params vector.
inline constexpr Operand kOperandTagMask = 0xC000;
inline constexpr Operand kOperandIndexMask = 0x3FFF;

enum class BcOp : uint8_t {
  // Pure value instructions (no data access; these are the only opcodes
  // allowed inside guard / key / result sub-ranges).
  kLoadField,   // dst = (*locals[a])[b], Null when absent / col overflow.
  kLoadExists,  // dst = (locals[a] != null) as int64 0/1.
  kAdd,         // dst = in(a) + in(b)   (numeric promotion as Value::Add).
  kSub,
  kMul,
  kEq,  // dst = 1/0 via Value::operator==.
  kNe,
  kLt,  // dst = 1/0 via CompareValues.
  kLe,
  kGt,
  kGe,
  kAnd,  // dst = truthy(in(a)) && truthy(in(b)); both sides evaluated
  kOr,   // eagerly by construction.
  kNot,
  kMod,   // dst = positive modulo, in(b) > 0.
  kPack,  // dst = fold of aux pairs [a, a + 2*b): (operand, shift bits).
  // Control flow.
  kJumpIfFalse,  // if !truthy(in(a)) pc = dst  (skips the rest of the op).
  // Data access (through AccessContext, table pointer pre-resolved).
  kReadRow,    // locals[dst] = view of read(tables[a], key=in(b)) or null.
  kBeginRow,   // scratch = (a != kNoBaseLocal && locals[a]) ? *locals[a] : {}.
  kSetCol,     // scratch[a] = in(b), resizing to a+1 when short.
  kAppendCol,  // scratch.push_back(in(a)).
  kWriteRow,   // write(tables[a], key=in(b), move(scratch), insert = c).
  kDeleteRow,  // write(tables[a], key=in(b), {}, deleted).
};

inline constexpr uint16_t kNoBaseLocal = 0xFFFF;

struct Instr {
  BcOp op = BcOp::kAdd;
  // Result register for value instructions; jump target for kJumpIfFalse;
  // output local for kReadRow.
  uint16_t dst = 0;
  Operand a = 0;  // First operand / local index / table slot / aux start.
  Operand b = 0;  // Second operand / column / key operand / pair count.
  uint16_t c = 0;  // kWriteRow: 1 = insert.
};

// Per-Operation metadata, parallel to ProcedureDef::ops. The sub-ranges
// let recovery re-run just the guard or just the key computation: the
// dynamic analysis (§4.3.1) extracts a piece's access set by executing key
// ranges alone, and resolvability is a compile-time-collected list of the
// locals the range's kField loads need present (a kLoadExists of an
// absent local is still an answer: 0).
struct CompiledOp {
  uint32_t begin = 0, end = 0;              // Full instruction range.
  uint32_t guard_begin = 0, guard_end = 0;  // Guard eval (sans jump).
  uint32_t key_begin = 0, key_end = 0;      // Key eval.
  Operand guard_operand = 0;
  Operand key_operand = 0;
  bool has_guard = false;
  bool is_write = false;  // Any modification (write / insert / delete).
  TableId table = kInvalidTableId;
  uint16_t table_slot = 0;  // Index into CompiledProgram::tables.
  std::vector<uint16_t> guard_field_locals;  // kField deps of the guard.
  std::vector<uint16_t> key_field_locals;    // kField deps of the key.
};

// One Emit() expression: run [begin, end), read `operand`; Null when any
// referenced kField local is absent.
struct CompiledResult {
  uint32_t begin = 0, end = 0;
  Operand operand = 0;
  std::vector<uint16_t> field_locals;
};

// Compile-time static read/write-set summary of a procedure, fed by the
// dormant src/analysis/ machinery. Forward processing uses it to pre-size
// the transaction's read/write sets and to skip commit-time write
// coalescing when no two write ops can alias; dependency-aware replay
// (CLR-P) gets its piece boundaries without re-deriving them per run.
struct StaticAccessSummary {
  struct OpAccess {
    OpIndex op = 0;
    TableId table = kInvalidTableId;
    bool is_write = false;
    bool guarded = false;
    std::string key_expr;  // Human-readable key expression (docs / DOT).
  };
  std::vector<OpAccess> accesses;  // Program order.
  size_t num_reads = 0;            // Static bound on read-set entries.
  size_t num_writes = 0;           // Static bound on write-set entries.
  // False only when every written table appears in exactly one
  // modification op: then one execution can produce at most one write per
  // (table, key) and commit-time coalescing is provably a no-op.
  bool writes_may_alias = true;
  // Modification ops pre-sorted by (table id, program order) — the commit
  // protocol's canonical lock-acquisition order restricted to what is
  // known statically (runtime keys break ties within a table).
  std::vector<OpIndex> canonical_write_order;
  // Piece boundaries: PACMAN slices (analysis/local_graph.h) and the
  // coarser transaction-chopping pieces (analysis/chopping.h).
  std::vector<std::vector<OpIndex>> slices;
  std::vector<std::vector<OpIndex>> chopping_pieces;
  // True when every access of the procedure uses one and the same key
  // expression: each execution then touches exactly one key value, hence
  // one shard, no matter what the parameters are. The partitioned engine
  // uses this to route such commits without scanning their access sets
  // (logging/log_manager.h StageSharded).
  bool single_shard_static = false;
};

// A fully lowered procedure. Immutable after compilation; shared by all
// executor threads.
struct CompiledProgram {
  const ProcedureDef* def = nullptr;
  std::vector<Instr> code;
  std::vector<Value> constants;
  std::vector<uint16_t> aux;  // kPack (operand, bits) pairs.
  // Tables resolved once at compile time (no catalog->GetTable descent
  // per access).
  std::vector<storage::Table*> tables;
  std::vector<TableId> table_ids;
  uint16_t num_regs = 0;
  uint16_t num_locals = 0;
  uint32_t body_begin = 0, body_end = 0;  // All ops, contiguous.
  std::vector<CompiledOp> ops;            // Parallel to def->ops.
  std::vector<CompiledResult> results;    // Parallel to def->results.
  StaticAccessSummary summary;
};

// Execution state of one program run. Owns nothing: registers, copy
// targets and scratch come from the executing thread's ExecArena; the
// local views either from the same arena (forward processing, CLR) or
// from a per-transaction VmTxnLocals shared by the transaction's pieces
// across threads (CLR-P).
struct VmState {
  const CompiledProgram* prog = nullptr;
  const std::vector<Value>* params = nullptr;  // Borrowed; never null.
  Value* regs = nullptr;
  // Per local: the row its read returned (a lent version row or rows[l]),
  // null while absent.
  const Row** locals = nullptr;
  // Per local: copy target for contexts that cannot lend rows. Null under
  // shared locals, which only a lending context may serve.
  Row* rows = nullptr;
  Row* scratch = nullptr;  // Row-build staging (kBeginRow/kWriteRow).
};

// Executes the given operations (ascending op indices): guards skip, read
// misses leave the local absent, non-OK only on internal errors.
Status VmExecuteOps(const std::vector<OpIndex>& op_indices, VmState* state,
                    AccessContext* access);

// Executes the whole procedure body in program order (single flat sweep
// over [body_begin, body_end)).
Status VmExecuteAll(VmState* state, AccessContext* access);

// Evaluates the Emit() result expressions; unresolvable results are Null.
std::vector<Value> VmEvalResults(VmState* state);

// Dynamic analysis (§4.3.1): the (table, key) set the given ops would
// access, from the runtime values in `state`. Returns false when some key
// depends on a read that has not executed. Scratch registers are written
// (hence the mutable state), locals are not.
bool VmTryExtractAccessSet(const std::vector<OpIndex>& op_indices,
                           VmState* state,
                           std::vector<std::pair<TableId, Key>>* out);

// Disassembly for tests and docs.
std::string DisassembleProgram(const CompiledProgram& prog);

}  // namespace pacman::proc

#endif  // PACMAN_PROC_BYTECODE_H_
