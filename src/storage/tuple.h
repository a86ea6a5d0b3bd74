// Copyright (c) 2026 The PACMAN reproduction authors.
// MVCC tuple slots and version chains.
//
// Each logical tuple (one candidate key of a table) owns a TupleSlot with a
// newest-first chain of committed versions. The engine is multi-versioned
// like the paper's Peloton configuration [42]: checkpointing reads a
// consistent snapshot at a timestamp while writers continue, and the
// latched recovery schemes (PLR/LLR) take the per-slot latch to append
// versions, while PACMAN (CLR-P / LLR-P) installs latch-free because its
// schedule already orders conflicting writes.
#ifndef PACMAN_STORAGE_TUPLE_H_
#define PACMAN_STORAGE_TUPLE_H_

#include <atomic>

#include "common/spin_latch.h"
#include "common/types.h"
#include "common/value.h"

namespace pacman::storage {

// One committed version of a tuple. Immutable once linked into the chain:
// `data`, `begin_ts` and `deleted` are never written after the release
// store that publishes the version (only `end_ts` is stamped when a newer
// version supersedes it), and the version lives until its slot is
// destroyed by Table::Reset or the table's destruction — the engine has no
// version GC. Recovery replay relies on both: the VM's replay reads lend
// `&data` instead of copying it (Table::NewestRow, proc/bytecode.h), and a
// replayed transaction holds those views across its piece-sets while later
// pieces install newer versions of the same keys. Any future version GC
// must therefore not reclaim versions while a recovery holds such views.
struct Version {
  Timestamp begin_ts = kInvalidTimestamp;  // Creator's commit timestamp.
  Timestamp end_ts = kMaxTimestamp;        // Superseder's commit timestamp.
  bool deleted = false;                    // Tombstone (SQL DELETE).
  Row data;
  Version* older = nullptr;
};

// Header of one logical tuple. Chains are newest-first and strictly
// decreasing in begin_ts.
struct TupleSlot {
  Key key = 0;
  SpinLatch latch;  // Install latch; also the recovery latch of PLR/LLR.
  // Commit stamp + write lock (Silo-style parallel commit): the packed
  // begin_ts of the newest version plus a write-lock bit, kept coherent
  // with `newest` by every install path (Table::InstallVersion* /
  // LoadRow). OCC validation compares this word against the stamp a read
  // observed; commit locks it for the slots in its write set. 0 means "no
  // version yet" (kInvalidTimestamp), which is also what a reader of an
  // absent key records.
  OccStampLock wlock;
  std::atomic<Version*> newest{nullptr};

  // Returns the version visible at read timestamp `ts` (newest version with
  // begin_ts <= ts), or nullptr if none. A returned tombstone means the
  // tuple is logically absent at `ts`.
  const Version* VisibleAt(Timestamp ts) const {
    for (const Version* v = newest.load(std::memory_order_acquire);
         v != nullptr; v = v->older) {
      if (v->begin_ts <= ts) return v;
    }
    return nullptr;
  }

  ~TupleSlot() {
    Version* v = newest.load(std::memory_order_relaxed);
    while (v != nullptr) {
      Version* older = v->older;
      delete v;
      v = older;
    }
  }
};

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_TUPLE_H_
