// Copyright (c) 2026 The PACMAN reproduction authors.
// Per-worker execution arena for compiled procedures.
//
// The VM's per-execution state — registers, local views, the locals' copy
// targets and the row-build scratch — lives here and is recycled across
// transactions: Bind() only clears the local views; registers keep
// whatever string capacity they accumulated (Value copy-assign from a
// non-string clears the type but not the buffer) and rows keep their
// element capacity. After the first few transactions warm a worker's
// arena, steady-state execution performs no heap allocation at all.
//
// Threading: one ExecArena per thread (the users hold it thread_local).
// Forward processing and CLR bind the whole state from the arena. CLR-P
// executes different pieces of one transaction on different threads, so
// the local views — the only state that crosses piece boundaries — live
// in a per-transaction VmTxnLocals instead, and BindShared() marries them
// to the calling thread's private registers and scratch. They hold no row
// copies: replay reads lend immutable version rows (ReplayAccess), which
// outlive the replay. This mirrors the interpreter: ProcState is
// per-transaction, expression temporaries are per-evaluation.
#ifndef PACMAN_PROC_EXEC_ARENA_H_
#define PACMAN_PROC_EXEC_ARENA_H_

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "common/value.h"
#include "proc/bytecode.h"

namespace pacman::proc {

// The transaction-scoped half of a VM state: one view per local (null =
// absent), shared by all pieces of one replayed transaction (CLR-P).
struct VmTxnLocals {
  std::vector<const Row*> views;

  void Reset(size_t num_locals) { views.assign(num_locals, nullptr); }
};

class ExecArena {
 public:
  ExecArena() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(ExecArena);

  // Binds full execution state for `prog` from this arena. Valid until the
  // next Bind/BindShared on the same arena.
  VmState Bind(const CompiledProgram& prog,
               const std::vector<Value>* params) {
    VmState st = BindShared(prog, params, nullptr);
    if (rows_.size() < prog.num_locals) rows_.resize(prog.num_locals);
    if (views_.size() < prog.num_locals) views_.resize(prog.num_locals);
    // Only the views must clear between transactions: a stale copy in
    // rows_ is unreachable until a read points a view at it again, and
    // registers are written before read within every op.
    std::fill_n(views_.begin(), prog.num_locals, nullptr);
    st.locals = views_.data();
    st.rows = rows_.data();
    return st;
  }

  // Binds thread-private registers and scratch from this arena, local
  // views from the caller's per-transaction `shared` (CLR-P), which must
  // already be Reset(prog.num_locals). No copy targets: reads must come
  // from a row-lending context.
  VmState BindShared(const CompiledProgram& prog,
                     const std::vector<Value>* params, VmTxnLocals* shared) {
    PACMAN_DCHECK(params != nullptr);
    if (regs_.size() < prog.num_regs) regs_.resize(prog.num_regs);
    VmState st;
    st.prog = &prog;
    st.params = params;
    st.regs = regs_.data();
    st.scratch = &scratch_;
    if (shared != nullptr) {
      PACMAN_DCHECK(shared->views.size() >= prog.num_locals);
      st.locals = shared->views.data();
    }
    return st;
  }

 private:
  std::vector<Value> regs_;
  std::vector<const Row*> views_;  // Bind()-mode local views.
  std::vector<Row> rows_;          // Bind()-mode copy targets.
  Row scratch_;
};

}  // namespace pacman::proc

#endif  // PACMAN_PROC_EXEC_ARENA_H_
