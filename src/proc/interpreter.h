// Copyright (c) 2026 The PACMAN reproduction authors.
// Stored-procedure interpreter.
//
// The same operation stream is executed in two worlds:
//  - forward processing: inside an optimistic transaction (TxnAccess);
//  - recovery replay: directly against the tables at a known commit
//    timestamp (ReplayAccess), with the install discipline of the active
//    recovery scheme (latched, latch-free, or last-writer-wins).
// It also implements the dynamic analysis primitive of §4.3.1: computing a
// piece's (table, key) access set from the runtime parameter values before
// executing it.
#ifndef PACMAN_PROC_INTERPRETER_H_
#define PACMAN_PROC_INTERPRETER_H_

#include <atomic>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "proc/procedure.h"
#include "storage/catalog.h"
#include "txn/transaction_manager.h"

namespace pacman::proc {

// Abstract data access used by the interpreter and the bytecode VM.
class AccessContext {
 public:
  virtual ~AccessContext() = default;
  virtual Status Read(TableId table, Key key, Row* out) = 0;
  virtual void Write(TableId table, Key key, Row row, bool deleted,
                     bool is_insert) = 0;

  // Pre-resolved-table fast path used by compiled programs: the compiler
  // caches the catalog_->GetTable(table) descent once per (program, table)
  // at FinalizeSchema() time. Contexts that can use the pointer directly
  // override these; the defaults fall back to the TableId virtuals so any
  // context keeps working unmodified.
  //
  // ReadView is the VM's only read: on OK it points *view at the row read,
  // which must stay valid and unchanged for the rest of the transaction's
  // execution. A context that can lend such a row (ReplayAccess: a
  // published version) points at it without copying; the default copies
  // into the caller's `buf` through Read(). `buf` is null for CLR-P's
  // shared locals, which only a lending context may serve.
  virtual Status ReadView(storage::Table* /*t*/, TableId table, Key key,
                          Row* buf, const Row** view) {
    PACMAN_CHECK_MSG(buf != nullptr,
                     "shared VM locals need a row-lending access context");
    *view = buf;
    return Read(table, key, buf);
  }
  virtual void WriteTable(storage::Table* /*t*/, TableId table, Key key,
                          Row row, bool deleted, bool is_insert) {
    Write(table, key, std::move(row), deleted, is_insert);
  }
};

// Forward-processing access: routes through an optimistic Transaction.
class TxnAccess : public AccessContext {
 public:
  TxnAccess(storage::Catalog* catalog, txn::Transaction* txn)
      : catalog_(catalog), txn_(txn) {}

  Status Read(TableId table, Key key, Row* out) override {
    return txn_->Read(catalog_->GetTable(table), key, out);
  }
  void Write(TableId table, Key key, Row row, bool deleted,
             bool is_insert) override {
    WriteTable(catalog_->GetTable(table), table, key, std::move(row),
               deleted, is_insert);
  }

  // Copies: the transaction must see its own buffered writes, which are
  // not published versions.
  Status ReadView(storage::Table* t, TableId /*table*/, Key key, Row* buf,
                  const Row** view) override {
    *view = buf;
    return txn_->Read(t, key, buf);
  }
  void WriteTable(storage::Table* t, TableId /*table*/, Key key, Row row,
                  bool deleted, bool is_insert) override {
    if (deleted) {
      txn_->Delete(t, key);
    } else if (is_insert) {
      txn_->Insert(t, key, std::move(row));
    } else {
      txn_->Write(t, key, std::move(row));
    }
  }

 private:
  storage::Catalog* catalog_;
  txn::Transaction* txn_;
};

// How recovery installs versions.
enum class InstallMode {
  kLatched,         // PLR/LLR: take the per-tuple latch.
  kUnlatched,       // PACMAN: the schedule already ordered conflicts.
  kLastWriterWins,  // PLR/LLR replaying out of order (Thomas write rule).
};

// Replay access: reads current state, installs at a fixed commit ts.
// (A (table, key) -> slot memo was tried here and measured ~10% slower
// than the plain index descent on the replay path — the B+tree is three
// cache-hot levels at these table sizes, cheaper than hash-map churn.)
class ReplayAccess : public AccessContext {
 public:
  ReplayAccess(storage::Catalog* catalog, InstallMode mode)
      : catalog_(catalog), mode_(mode) {}

  void set_commit_ts(Timestamp cts) { cts_ = cts; }

  Status Read(TableId table, Key key, Row* out) override {
    const Row* row = nullptr;
    Status s = ReadView(catalog_->GetTable(table), table, key, nullptr, &row);
    if (s.ok()) *out = *row;
    return s;
  }

  void Write(TableId table, Key key, Row row, bool deleted,
             bool is_insert) override {
    WriteTable(catalog_->GetTable(table), table, key, std::move(row),
               deleted, is_insert);
  }

  // Zero-copy: lends the newest version's row, which stays valid and
  // unchanged while later installs add newer versions (storage/tuple.h).
  // `buf` is never touched.
  Status ReadView(storage::Table* t, TableId /*table*/, Key key,
                  Row* /*buf*/, const Row** view) override {
    reads_++;
    *view = t->NewestRow(key);
    return *view != nullptr ? Status::Ok() : Status::NotFound();
  }

  void WriteTable(storage::Table* t, TableId /*table*/, Key key, Row row,
                  bool deleted, bool /*is_insert*/) override {
    writes_++;
    storage::TupleSlot* slot = t->GetOrCreateSlot(key);
    switch (mode_) {
      case InstallMode::kLatched:
        latch_acquisitions_++;
        storage::Table::InstallVersionLatched(slot, std::move(row), cts_,
                                              deleted);
        break;
      case InstallMode::kUnlatched:
        storage::Table::InstallVersionUnlatched(slot, std::move(row), cts_,
                                                deleted);
        break;
      case InstallMode::kLastWriterWins:
        latch_acquisitions_++;
        storage::Table::InstallLastWriterWins(slot, std::move(row), cts_,
                                              deleted);
        break;
    }
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t latch_acquisitions() const { return latch_acquisitions_; }

 private:
  storage::Catalog* catalog_;
  InstallMode mode_;
  Timestamp cts_ = kInvalidTimestamp;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t latch_acquisitions_ = 0;
};

// Mutable execution state of one procedure instance (one transaction):
// parameter values plus the local rows produced by reads so far. During
// recovery this state is shared by all pieces of the transaction, so later
// piece-sets see the locals produced by earlier ones (§4.3.1).
//
// The parameter vector is borrowed, not copied: the caller's argument
// storage (the client's vector in forward processing, the log record
// during replay) must outlive the state. The pointer-taking constructor
// makes that explicit — replay instantiates one state per logged
// transaction, and copying every record's params was a measurable slice
// of recovery time.
struct ProcState {
  const ProcedureDef* proc = nullptr;
  const std::vector<Value>* params = nullptr;  // Borrowed; never null.
  std::vector<Row> locals;
  std::vector<uint8_t> present;

  ProcState() = default;
  ProcState(const ProcedureDef* p, const std::vector<Value>* args)
      : proc(p), params(args) {
    PACMAN_DCHECK(args != nullptr);
    locals.resize(p->num_locals);
    present.assign(p->num_locals, false);
  }

  EvalContext Ctx() const {
    EvalContext ctx;
    ctx.params = params;
    ctx.locals = &locals;
    ctx.local_present = &present;
    return ctx;
  }
};

// Executes the given operations (ascending op indices) of state.proc.
// Guards are evaluated; guarded-out ops are skipped. Returns non-OK only
// on internal errors (reads that miss simply leave the local absent).
Status ExecuteOps(const std::vector<OpIndex>& op_indices, ProcState* state,
                  AccessContext* access);

// Executes all operations of the procedure in program order.
Status ExecuteAll(ProcState* state, AccessContext* access);

// Evaluates the procedure's Emit() result expressions against the final
// execution state — the client-visible outputs of the transaction. An
// expression referencing a local whose defining read was guarded out or
// missed evaluates to Null (checked via Resolvable, so no arithmetic runs
// on absent rows). Recovery never calls this: responses are not replayed.
std::vector<Value> EvalResults(const ProcState& state);

// Dynamic analysis: computes the (table,key) set the given ops would
// access, using the runtime values available in `state`. Returns false if
// some key or guard is not yet resolvable (it depends on a read that has
// not executed), in which case the caller must fall back to conservative
// ordering for this piece.
bool TryExtractAccessSet(const std::vector<OpIndex>& op_indices,
                         const ProcState& state,
                         std::vector<std::pair<TableId, Key>>* out);

}  // namespace pacman::proc

#endif  // PACMAN_PROC_INTERPRETER_H_
