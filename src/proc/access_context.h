// Copyright (c) 2026 The PACMAN reproduction authors.
// Data access for stored-procedure execution.
//
// The same compiled procedure runs in two worlds:
//  - forward processing: inside an optimistic transaction (TxnAccess);
//  - recovery replay: directly against the tables at a known commit
//    timestamp (ReplayAccess), with the install discipline of the active
//    recovery scheme (latched, latch-free, or last-writer-wins).
// The bytecode VM (proc/bytecode.h) reads and writes only through an
// AccessContext, so both worlds, all five recovery schemes and the §4.3.1
// access-set extraction share one execution engine.
#ifndef PACMAN_PROC_ACCESS_CONTEXT_H_
#define PACMAN_PROC_ACCESS_CONTEXT_H_

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "txn/transaction_manager.h"

namespace pacman::proc {

// Abstract data access used by the bytecode VM.
class AccessContext {
 public:
  virtual ~AccessContext() = default;
  virtual Status Read(TableId table, Key key, Row* out) = 0;
  virtual void Write(TableId table, Key key, Row row, bool deleted,
                     bool is_insert) = 0;

  // Pre-resolved-table fast path: the compiler caches the
  // catalog_->GetTable(table) descent once per (program, table) at
  // FinalizeSchema() time. Contexts that can use the pointer directly
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

}  // namespace pacman::proc

#endif  // PACMAN_PROC_ACCESS_CONTEXT_H_
