#include "recovery/clr.h"

#include "common/macros.h"
#include "proc/access_context.h"
#include "proc/exec_arena.h"

namespace pacman::recovery {

void BuildClrReplay(const std::vector<GlobalBatch>& batches,
                    const std::vector<device::StorageDevice*>& ssds,
                    storage::Catalog* catalog,
                    const proc::ProgramSet& programs,
                    const RecoveryOptions& options, sim::TaskGraph* graph,
                    RecoveryCounters* counters,
                    const std::vector<sim::TaskId>* batch_gates) {
  const CostModel cm = options.costs;
  const auto num_ssds = static_cast<uint32_t>(ssds.size());
  const sim::GroupId cpu = CpuGroup(num_ssds);
  const bool reload_only = options.reload_only;
  const proc::ProgramSet* progs = &programs;

  sim::TaskId prev_replay = sim::kInvalidTask;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    std::vector<sim::TaskId> ios;
    size_t batch_bytes = 0;
    for (const auto& [ssd_index, bytes] : batch.files) {
      const double io_cost = ssds[ssd_index]->ReadSeconds(bytes);
      batch_bytes += bytes;
      ios.push_back(graph->AddTask(
          io_cost, [counters, io_cost]() { counters->AddLoading(io_cost); },
          SsdGroup(ssd_index), batch.seq));
    }
    const double deser_cost =
        static_cast<double>(batch_bytes) * cm.deserialize_byte;
    sim::TaskId deser = graph->AddTask(
        deser_cost,
        [counters, deser_cost]() { counters->AddLoading(deser_cost); }, cpu,
        batch.seq);
    for (sim::TaskId io : ios) graph->AddEdge(io, deser);
    if (batch_gates != nullptr) graph->AddEdge((*batch_gates)[bi], deser);
    if (reload_only) continue;

    // Serial re-execution of the whole batch; the chain of replay tasks
    // enforces the single-threaded replay in ascending TID per batch.
    // Re-execution reproduces pre-crash state because commit TIDs order
    // every pair of conflicting transactions, anti-dependencies included
    // (txn/transaction_manager.h), and batches are TID intervals (drains
    // run at commit quiesce barriers), so batch-sequential replay is
    // TID-order replay — equivalent to the forward schedule.
    sim::TaskId replay = graph->AddTask(0.0, nullptr, cpu, batch.seq);
    const GlobalBatch* b = &batch;
    graph->task(replay).dynamic_work = [b, catalog, progs, counters, cm]() {
      proc::ReplayAccess access(catalog, proc::InstallMode::kUnlatched);
      // Replay-thread arena: VM registers/local views/scratch recycled
      // across all re-executed transactions of this thread. ReplayAccess
      // lends version rows, so the arena's copy targets stay unused.
      thread_local proc::ExecArena arena;
      double cost = 0.0;
      for (const logging::LogRecord* rec : b->records) {
        access.set_commit_ts(rec->commit_ts);
        const uint64_t reads0 = access.reads();
        const uint64_t writes0 = access.writes();
        if (rec->is_adhoc()) {
          // Ad-hoc entries carry logical images: reinstall directly.
          for (const logging::WriteImage& img : rec->writes) {
            access.Write(img.table, img.key, img.after, img.deleted, false);
          }
        } else {
          proc::VmState vm = arena.Bind(progs->Get(rec->proc), &rec->params);
          Status s = proc::VmExecuteAll(&vm, &access);
          PACMAN_CHECK(s.ok());
        }
        cost += cm.txn_dispatch +
                cm.read_op * static_cast<double>(access.reads() - reads0) +
                cm.write_op * static_cast<double>(access.writes() - writes0);
      }
      counters->AddRecords(b->records.size());
      counters->AddTuples(access.writes());
      counters->AddUseful(cost);
      return cost;
    };
    graph->AddEdge(deser, replay);
    if (prev_replay != sim::kInvalidTask) {
      graph->AddEdge(prev_replay, replay);
    }
    prev_replay = replay;
  }
}

}  // namespace pacman::recovery
