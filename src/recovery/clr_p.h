// Copyright (c) 2026 The PACMAN reproduction authors.
// CLR-P: the PACMAN parallel command-log recovery runtime (paper §4).
//
// For every log batch PACMAN instantiates one piece-set per GDG block
// (§4.2); piece-sets are the coordination granularity (§4.2.1). When a
// piece-set activates, the runtime parameter values of its pieces are
// available (from the log and from upstream piece-sets), so one dynamic
// analysis pass computes each piece's (table, key) access set and links
// each piece to the last earlier piece that touched each of its keys: a
// conflict DAG in TID order, which chains only truly conflicting pieces
// (§4.3.1). Batches are pipelined: piece-set (batch b, block k) needs only
// its same-batch dependencies and (b-1, k), not a global barrier (§4.3.2).
// Ad-hoc transactions appear as write-only pieces routed to the block
// owning the written table (§4.5).
//
// Both backends run the same DAG. On real threads every piece-set gets
// one worker task per lane thread; the workers pop ready pieces from a
// shared queue, release each finished piece's successors and exit when
// nothing is ready, so idle threads help the heavy blocks. On the
// simulated machine the piece-set occupies its assigned cores (§4.4) for
// the makespan of a list schedule of the same DAG over the measured
// per-piece op costs.
#ifndef PACMAN_RECOVERY_CLR_P_H_
#define PACMAN_RECOVERY_CLR_P_H_

#include "analysis/global_graph.h"
#include "proc/compiler.h"
#include "proc/registry.h"
#include "recovery/recovery.h"
#include "sim/machine.h"
#include "sim/task_graph.h"

namespace pacman::recovery {

// The simulated core-to-block assignment for one CLR-P run (§4.4,
// Fig. 10). All recovery threads form one pool; every piece-set of block
// k runs as `block_cores[k]` worker tasks on that pool, each occupying a
// simulated core for the piece-set's modeled makespan, so contention
// between blocks emerges from the simulation rather than from an analytic
// correction. The layout serves only the simulator: on real threads every
// piece-set gets one worker per thread and its workers drain the conflict
// DAG together.
struct ClrPLayout {
  sim::MachineConfig machine;          // SSD groups + one CPU pool.
  sim::GroupId cpu_group = 0;          // The pool's group id.
  std::vector<uint32_t> block_cores;   // BlockId -> cores (>= 1).
};

// Computes the per-block core assignment from the piece distribution of
// the reloaded batches (§4.4, Fig. 10), weighted by the cost model so
// heavy blocks get proportional shares.
ClrPLayout PlanClrPLayout(const analysis::GlobalDependencyGraph& gdg,
                          const std::vector<GlobalBatch>& batches,
                          const proc::ProcedureRegistry* registry,
                          uint32_t num_ssds,
                          const RecoveryOptions& options);

// Appends the PACMAN log-replay tasks to `graph`. `layout` is the
// simulated core assignment (PlanClrPLayout); pass nullptr on real
// threads, where every piece-set gets `options.num_threads` workers.
// `options.mode` selects static-only / synchronous / pipelined execution.
// `batches` must stay alive until the graph has run; records are read at
// dispatch time only, so with `batch_gates` (AddBatchGates) each batch
// may still be loading when the graph is built. When `programs` holds
// compiled bytecode, pieces execute through the VM: per-transaction
// locals are shared across the replay threads (exactly like ProcState)
// while registers and scratch stay thread-private in each thread's arena.
void BuildClrPReplay(const analysis::GlobalDependencyGraph& gdg,
                     const std::vector<GlobalBatch>& batches,
                     const std::vector<device::StorageDevice*>& ssds,
                     storage::Catalog* catalog,
                     const proc::ProcedureRegistry* registry,
                     const RecoveryOptions& options, const ClrPLayout* layout,
                     sim::TaskGraph* graph,
                     RecoveryCounters* counters,
                     const std::vector<sim::TaskId>* batch_gates = nullptr,
                     const proc::ProgramSet* programs = nullptr);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_CLR_P_H_
