// The per-layer ladder of the traced run: the workload's own request
// stream timed at successive rungs, each adding one layer, so the gap
// between two rungs is that layer's cost.
//
//   proc      VmExecuteAll over a stub access (no storage)
//   storage   VmExecuteAll over ReplayAccess            (- proc)
//   txn       Database::Execute, one thread, epochs driven here (- storage)
//   logging   AdvanceEpoch every kEpochEvery commits of the txn rung
//   pacman    Session::Call (- Execute); PostToService -> completion
//   net       one connection, window 1 (- PostToService), fence every 100
//   txn x4    Session::Call from four threads: aborts, retries, lock waits
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "net/protocol.h"
#include "net/server.h"
#include "proc/bytecode.h"
#include "proc/exec_arena.h"
#include "proc/interpreter.h"
#include "trace.h"
#include "wire.h"

namespace perfbench {
namespace {

using pacman::Status;
using pacman::TableId;
using pacman::Row;

constexpr uint32_t kEpochEvery = 200;  // The engine's default epoch size.
constexpr int kPasses = 3;             // Rungs without side effects.
// Request ids of ladder spans: the stream index, so one request's spans
// share an id across the rungs it passes through.
constexpr uint64_t kLadderReq = uint64_t{1} << 61;

// Storage-free access: every read of a table returns one real row of that
// table (captured on first use, so widths and types match what the
// procedure expects), writes are dropped.
class StubAccess : public pacman::proc::AccessContext {
 public:
  explicit StubAccess(pacman::storage::Catalog* catalog) : catalog_(catalog) {}
  Status Read(TableId table, pacman::Key key, Row* out) override {
    if (table >= rows_.size()) rows_.resize(table + 1);
    if (rows_[table].empty()) {
      Status s = catalog_->GetTable(table)->Read(key, pacman::kMaxTimestamp,
                                                 &rows_[table]);
      if (!s.ok()) return s;
    }
    *out = rows_[table];
    return Status::Ok();
  }
  void Write(TableId, pacman::Key, Row row, bool, bool) override {
    sink_ = std::move(row);
  }

 private:
  pacman::storage::Catalog* catalog_;
  std::vector<Row> rows_;
  Row sink_;
};

std::unique_ptr<Database> FreshDatabase(const WorkloadDef& w,
                                        uint32_t commits_per_epoch) {
  DatabaseOptions o = w.options;
  o.device = pacman::device::DeviceKind::kSimulatedSsd;
  o.log_dir.clear();
  o.device_factory = nullptr;
  o.checkpoint_log_bytes = 0;
  o.checkpoint_event_hook = nullptr;
  o.commits_per_epoch = commits_per_epoch;
  auto db = std::make_unique<Database>(o);
  w.install_schema(db.get());
  w.load(db.get());
  db->FinalizeSchema();
  return db;
}

// Median over passes of the ns per request of `one` over `reqs`.
template <typename Fn>
double NsPerTxn(const char* span, const std::vector<Request>& reqs,
                const Fn& one) {
  std::vector<double> ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    Span s(span);
    const int64_t t0 = MonoNs();
    for (const Request& q : reqs) one(q);
    ns.push_back(static_cast<double>(MonoNs() - t0) /
                 static_cast<double>(reqs.size()));
  }
  return Median(ns);
}

}  // namespace

void RunLadder(const WorkloadDef& w, uint64_t seed, Pass* p) {
  Span ladder("bench.ladder");
  SetPhase(ladder.id());
  const std::vector<Request> reqs =
      MakeStream(w.next, seed ^ 0x1add3full, w.ladder_txns);
  const size_t n = reqs.size();
  bool vm_ok = true;

  // --- proc + storage ------------------------------------------------------
  double vm_ns = 0.0, replay_ns = 0.0;
  {
    std::unique_ptr<Database> db = FreshDatabase(w, 0);
    pacman::proc::ExecArena arena;
    StubAccess stub(db->catalog());
    vm_ns = NsPerTxn("proc.VmExecuteAll", reqs, [&](const Request& q) {
      pacman::proc::VmState vm = arena.Bind(db->programs().Get(q.proc), &q.args);
      vm_ok = pacman::proc::VmExecuteAll(&vm, &stub).ok() && vm_ok;
    });
    pacman::proc::ReplayAccess replay(db->catalog(),
                                      pacman::proc::InstallMode::kUnlatched);
    pacman::Timestamp ts = db->txn_manager()->LastCommitted() + 1;
    replay_ns = NsPerTxn("storage.ReplayAccess", reqs, [&](const Request& q) {
      replay.set_commit_ts(ts++);
      pacman::proc::VmState vm = arena.Bind(db->programs().Get(q.proc), &q.args);
      vm_ok = pacman::proc::VmExecuteAll(&vm, &replay).ok() && vm_ok;
    });
  }
  p->Check(vm_ok, "ladder VM rungs execute every request");

  // --- txn + logging, Session::Call, PostToService, wire -------------------
  std::unique_ptr<Database> db = FreshDatabase(w, 0);
  Dist exec_us, flush_us, post_us, wire_us, fence_us;
  uint64_t bad = 0;
  auto flush = [&] {
    Span s("logging.AdvanceEpoch");
    const int64_t t0 = MonoNs();
    if (!db->AdvanceEpoch().status.ok()) bad++;
    flush_us.Add(static_cast<double>(MonoNs() - t0) * 1e-3);
  };
  // Execute and Session::Call alternate over the stream, so both see the
  // same database state as it grows.
  Dist call_us;
  {
    Span s("bench.rung_execute_call");
    auto session = db->OpenSession();
    const pacman::WorkerId slot = session->slot();
    for (size_t i = 0; i < n; ++i) {
      const Request& q = reqs[i];
      const int64_t t0 = MonoNs();
      bool ok = false;
      if (i % 2 == 0) {
        ok = db->Execute(q.proc, q.args, {q.adhoc, 100, slot}).ok();
      } else {
        pacman::TxnOptions o;
        o.adhoc = q.adhoc;
        ok = session->Call(db->proc(q.proc), q.args, o).ok();
      }
      const int64_t t1 = MonoNs();
      if (!ok) bad++;
      (i % 2 == 0 ? exec_us : call_us).Add(static_cast<double>(t1 - t0) * 1e-3);
      if (Sampled(i / 2)) {
        RecordSpan(i % 2 == 0 ? "txn.Execute" : "pacman.Session::Call",
                   s.id(), kLadderReq | i, t0, t1);
      }
      if ((i + 1) % kEpochEvery == 0) flush();
    }
  }

  const size_t n_rt = std::max<size_t>(n / 4, 1000);  // Round-trip rungs.
  db->StartWorkers(2);
  {
    Span s("bench.rung_post");
    std::atomic<int64_t> done_ns{0};
    std::atomic<bool> done_ok{false};
    for (size_t i = 0; i < n_rt; ++i) {
      const Request& q = reqs[i % n];
      pacman::TxnOptions o;
      o.adhoc = q.adhoc;
      done_ns.store(0);
      const int64_t t0 = MonoNs();
      const Status st = db->PostToService(
          q.proc, q.args, o, [&](pacman::TxnResult r) {
            done_ok.store(r.ok());
            done_ns.store(MonoNs(), std::memory_order_release);
          });
      if (!st.ok()) {
        bad++;
        continue;
      }
      int64_t t1 = 0;
      while ((t1 = done_ns.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      if (!done_ok.load()) bad++;
      post_us.Add(static_cast<double>(t1 - t0) * 1e-3);
      if (Sampled(i)) {
        RecordSpan("pacman.PostToService", s.id(), kLadderReq | i, t0, t1);
      }
      if ((i + 1) % kEpochEvery == 0) flush();
    }
  }
  pacman::net::ServerStats net_stats;
  {
    pacman::net::ServerOptions so;
    so.io_threads = 1;
    so.executor_workers = 2;
    pacman::net::Server server(db.get(), so);
    WireConn conn;
    bool wire_ok = server.Start().ok() && conn.Open(server.port());
    std::vector<uint32_t> wire_proc(db->num_procedures());
    for (ProcId id = 0; wire_ok && id < db->num_procedures(); ++id) {
      wire_ok = conn.GetProc(db->procedure_name(id), &wire_proc[id]);
    }
    const std::string fence = FlushFrame();
    std::vector<uint8_t> payload;
    Span s("bench.rung_wire");
    for (size_t i = 0; wire_ok && i < n_rt; ++i) {
      const Request& q = reqs[i % n];
      const int64_t t0 = MonoNs();
      wire_ok = conn.Send(pacman::net::CallFrame(
                    i, wire_proc[q.proc],
                    q.adhoc ? pacman::net::kCallFlagAdhoc : 0, q.args)) &&
                conn.RecvFrame(&payload) &&
                payload[0] ==
                    static_cast<uint8_t>(pacman::net::MsgType::kCallResult);
      if (!wire_ok) break;
      pacman::Deserializer d(payload.data() + 1, payload.size() - 1);
      pacman::net::CallResultMsg r;
      if (!pacman::net::ParseCallResult(&d, &r).ok() || r.status != 0) bad++;
      const int64_t t1 = MonoNs();
      wire_us.Add(static_cast<double>(t1 - t0) * 1e-3);
      if (Sampled(i)) RecordSpan("net.call", s.id(), kLadderReq | i, t0, t1);
      if ((i + 1) % 100 == 0) {
        const int64_t f0 = MonoNs();
        wire_ok = conn.Send(fence) && conn.RecvFrame(&payload) &&
                  payload[0] ==
                      static_cast<uint8_t>(pacman::net::MsgType::kFlushOk) &&
                  payload.size() >= 2 && payload[1] == 0;
        fence_us.Add(static_cast<double>(MonoNs() - f0) * 1e-3);
      }
    }
    p->Check(wire_ok, "ladder wire rung");
    net_stats = server.stats();
    server.Stop();
  }
  db->StopWorkers();
  db.reset();

  // --- txn at four threads -------------------------------------------------
  constexpr int kThreads = 4;
  uint64_t commits = 0, retries = 0, aborts = 0, lock_waits = 0;
  {
    std::unique_ptr<Database> cdb = FreshDatabase(w, w.options.commits_per_epoch);
    const uint64_t a0 = cdb->txn_manager()->num_aborts();
    const uint64_t l0 = cdb->txn_manager()->num_commit_lock_waits();
    std::vector<std::vector<Request>> streams;
    for (int c = 0; c < kThreads; ++c) {
      streams.push_back(MakeStream(w.next, seed * 7919ull + c, n / kThreads));
    }
    std::vector<uint64_t> c_commits(kThreads), c_retries(kThreads),
        c_bad(kThreads);
    Span s("txn.Session::Call_x4");
    std::vector<std::thread> threads;
    for (int c = 0; c < kThreads; ++c) {
      threads.emplace_back([&, c] {
        auto session = cdb->OpenSession();
        for (const Request& q : streams[c]) {
          pacman::TxnOptions o;
          o.adhoc = q.adhoc;
          pacman::TxnResult r = session->Call(cdb->proc(q.proc), q.args, o);
          if (!r.ok()) {
            c_bad[c]++;
            continue;
          }
          c_commits[c]++;
          c_retries[c] += static_cast<uint64_t>(r.attempts - 1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int c = 0; c < kThreads; ++c) {
      commits += c_commits[c];
      retries += c_retries[c];
      bad += c_bad[c];
    }
    aborts = cdb->txn_manager()->num_aborts() - a0;
    lock_waits = cdb->txn_manager()->num_commit_lock_waits() - l0;
  }
  p->Ops(n + 2 * n_rt + kThreads * (n / kThreads) + flush_us.size(), bad,
         "ladder calls and fences");

  const double exec_ns = exec_us.Mean() * 1e3;
  const double call_ns = call_us.Mean() * 1e3;
  const double dc = commits > 0 ? static_cast<double>(commits) : 1.0;
  auto& L = p->layer;
  L["proc.vm_ns_per_txn"] = vm_ns;
  L["storage.access_ns_per_txn"] = replay_ns - vm_ns;
  L["txn.commit_ns_per_txn"] = exec_ns - replay_ns;
  L["txn.abort_rate"] = static_cast<double>(aborts) /
                        static_cast<double>(aborts + commits);
  L["txn.retries_per_txn"] = static_cast<double>(retries) / dc;
  L["txn.lock_waits_per_txn"] = static_cast<double>(lock_waits) / dc;
  L["logging.flush_us_p50"] = flush_us.P(0.50);
  L["logging.flush_us_p99"] = flush_us.P(0.99);
  L["pacman.call_overhead_ns"] = call_ns - exec_ns;
  L["pacman.queue_us"] = post_us.P(0.50) - exec_us.P(0.50);
  L["net.self_us"] = wire_us.P(0.50) - post_us.P(0.50);
  L["net.fence_p99_us"] = fence_us.P(0.99);
  L["net.calls"] = static_cast<double>(net_stats.calls);
  L["net.shed"] = static_cast<double>(net_stats.shed);
  L["net.protocol_errors"] = static_cast<double>(net_stats.protocol_errors);
  std::printf(
      "  ladder (%zu txns)             vm=%.0fns replay=%.0fns execute=%.0fns "
      "call=%.0fns | p50 execute=%.2fus post=%.2fus wire=%.2fus | flush "
      "p50=%.2fus p99=%.2fus fence p99=%.2fus | x4: commits=%llu aborts=%llu "
      "retries=%llu lock_waits=%llu\n",
      n, vm_ns, replay_ns, exec_ns, call_ns, exec_us.P(0.5), post_us.P(0.5),
      wire_us.P(0.5), flush_us.P(0.5), flush_us.P(0.99), fence_us.P(0.99),
      static_cast<unsigned long long>(commits),
      static_cast<unsigned long long>(aborts),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(lock_waits));
}

}  // namespace perfbench
