// The workloads. Each is closed-loop, builds its request streams from the
// run's seed before timing starts, and checks its own output.
//
//   smallbank_embedded Smallbank from 4 client threads, each with its own
//                      Session::Call; background checkpoints triggered by
//                      logged bytes.
//   tpcc_recover       restart-to-serving over a fixed TPC-C image on the
//                      file device.
//
// The host's speed drifts over seconds to minutes, so each run spreads the
// samples of every metric over its whole length: it is made of rounds, and
// every round sets up a fresh database, does its share of the measured
// work and then restarts from the image it left behind. setup_s is the
// median of the rounds' setups, and memory stays bounded by one round.
//
// smallbank_embedded logs to the simulated device: real fsync on a shared
// VM varies run to run by far more than any bound this benchmark could
// hold. Each of its rounds runs a forward phase, commits a fixed tail from
// one session, crashes, and restarts through the path tpcc_recover
// measures, so the workload also proves that crash + Recover(kClrP)
// reproduces its content.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "device/file_device.h"
#include "device/simulated_ssd.h"
#include "trace.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace perfbench {
namespace {

constexpr size_t kStreamPerClient = 1u << 17;  // Cycled when exhausted.
constexpr double kWindowS = 0.25;       // Forward-phase estimator window.

// --- Shared by the workloads -----------------------------------------------

struct SimStore {
  std::vector<std::unique_ptr<pacman::device::SimulatedSsd>> owned;
  std::vector<StorageDevice*> devices;
  explicit SimStore(uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<pacman::device::SimulatedSsd>());
      devices.push_back(owned.back().get());
    }
  }
};

DeviceCounts Counts(const Pass* p) {
  return p->counters != nullptr ? p->counters->Snapshot() : DeviceCounts{};
}

// Timed setups; reports setup_s (median) and analysis.finalize_s.
class Setups {
 public:
  std::unique_ptr<Database> Run(const WorkloadDef& w,
                                const std::vector<StorageDevice*>& devs,
                                Pass* p) {
    Span s("bench.setup");
    SetPhase(s.id());
    double fin = 0.0, ckpt = 0.0;
    const double t0 = NowS();
    std::unique_ptr<Database> db = SetupDatabase(w, devs, p->counters, &fin,
                                                 &ckpt);
    setup_s_.push_back(NowS() - t0);
    finalize_s_.push_back(fin);
    return db;
  }
  void Report(Pass* p) const {
    p->e2e["setup_s"] = Median(setup_s_);
    p->layer["analysis.finalize_s"] = Median(finalize_s_);
    std::printf("  setup                        n=%zu median=%.4fs "
                "(FinalizeSchema %.4fs)\n",
                setup_s_.size(), Median(setup_s_), Median(finalize_s_));
  }

 private:
  std::vector<double> setup_s_, finalize_s_;
};

// Engine counters over the forward phases, for the traced report.
class ForwardTotals {
 public:
  struct Mark {
    uint64_t epoch, log_bytes, commits;
    double rss_mb;
  };
  static Mark Take(Database* db) {
    return Mark{db->epoch_manager()->current(), db->log_bytes(),
                db->commits(), CurrentRssMb()};
  }
  void Add(const Mark& a, const Mark& b) {
    if (commits_ == 0 && b.commits > a.commits) {
      // Memory growth of the first phase, in a fresh process.
      rss_per_mtxn_ = (b.rss_mb - a.rss_mb) /
                      static_cast<double>(b.commits - a.commits) * 1e6;
    }
    flushes_ += b.epoch - a.epoch;
    bytes_ += b.log_bytes - a.log_bytes;
    commits_ += b.commits - a.commits;
  }
  void Report(const DeviceCounts& writes, Pass* p) const {
    const double commits = static_cast<double>(std::max<uint64_t>(commits_, 1));
    p->layer["logging.flushes"] = static_cast<double>(flushes_);
    p->layer["logging.bytes_per_txn"] = static_cast<double>(bytes_) / commits;
    p->layer["storage.rss_mb_per_mtxn"] = rss_per_mtxn_;
    ReportDeviceWrites(writes, p);
    std::printf("  logging                      flushes=%llu bytes/txn=%.2f "
                "rss_growth=%.2fMB per Mtxn\n",
                static_cast<unsigned long long>(flushes_),
                static_cast<double>(bytes_) / commits, rss_per_mtxn_);
  }

 private:
  uint64_t flushes_ = 0, bytes_ = 0, commits_ = 0;
  double rss_per_mtxn_ = 0.0;
};

void AddStats(const pacman::maintenance::MaintenanceStats& s,
              pacman::maintenance::MaintenanceStats* sum) {
  sum->checkpoints += s.checkpoints;
  sum->checkpoint_failures += s.checkpoint_failures;
  sum->batches_deleted += s.batches_deleted;
}

// Restarts over the image a forward round left behind.
void ForwardRestarts(const WorkloadDef& w,
                     const std::vector<StorageDevice*>& devs, uint64_t hash,
                     int samples, Pass* p, RestartResult* r) {
  RestartSpec spec;
  spec.w = &w;
  DatabaseOptions o = w.options;
  o.checkpoint_log_bytes = 0;  // A restarted process serves; no cycles.
  o.checkpoint_event_hook = nullptr;
  spec.options = WithDevices(o, devs, p->counters);
  spec.image = devs;
  spec.expected_hash = hash;
  spec.samples = samples;
  spec.seed = p->args->seed;
  Span s("bench.restarts");
  SetPhase(s.id());
  RunRestarts(spec, p, r);
}

std::vector<std::vector<Request>> ClientStreams(const WorkloadDef& w,
                                                uint64_t seed, int clients) {
  std::vector<std::vector<Request>> out;
  for (int c = 0; c < clients; ++c) {
    out.push_back(MakeStream(w.next, seed * 1000003ull + c, kStreamPerClient));
  }
  return out;
}

// --- smallbank_embedded ----------------------------------------------------

constexpr int kEmbeddedRounds = 8;
constexpr int kEmbeddedRestartsPerRound = 3;
constexpr int kEmbeddedClients = 4;
// Work is fixed per run, in proportion to --seconds, so a faster engine
// does the same work sooner instead of more work (which would show up as
// more memory, since versions are kept). The rate is set below what the
// engine sustains here, so the forward phases take about half a run.
constexpr double kEmbeddedCallsPerS = 450000;
// Log tail every restart replays.
constexpr size_t kSmallbankTailTxns = 30000;

WorkloadDef SmallbankDef(pacman::workload::Smallbank* sb) {
  WorkloadDef w;
  w.options.scheme = pacman::logging::LogScheme::kCommand;
  w.options.checkpoint_log_bytes = 8u << 20;
  w.install_schema = [sb](Database* db) {
    sb->CreateTables(db->catalog());
    sb->RegisterProcedures(db->registry());
  };
  w.load = [sb](Database* db) { sb->Load(db->catalog()); };
  const int64_t accounts = sb->config().num_accounts;
  w.read_only = [sb, accounts](Rng* rng) {
    Request r;
    r.proc = sb->balance_id();
    r.args = {Value(rng->UniformInt(0, accounts - 1))};
    return r;
  };
  w.next = [sb](Rng* rng) {
    Request r;
    r.proc = sb->NextTransaction(rng, &r.args);
    return r;
  };
  return w;
}

struct ClientTally {
  uint64_t calls = 0, failed = 0;
  std::vector<Timed> lat;
};

// Four client threads, each with its own session, `per_client` calls each.
double DriveEmbedded(Database* db,
                     const std::vector<std::vector<Request>>& streams,
                     uint64_t per_client, std::vector<Timed>* lat,
                     uint64_t* calls, uint64_t* failed) {
  std::vector<pacman::ProcHandle> handles;
  for (ProcId id = 0; id < db->num_procedures(); ++id) {
    handles.push_back(db->proc(id));
  }
  std::vector<ClientTally> tallies(streams.size());
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> start{0};
  Span s("bench.measure");
  SetPhase(s.id());
  const uint64_t phase = s.id();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      t.lat.reserve(per_client);
      auto session = db->OpenSession();
      const std::vector<Request>& reqs = streams[c];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const int64_t t_start = start.load();
      for (uint64_t i = 0; i < per_client; ++i) {
        const Request& q = reqs[i % reqs.size()];
        const int64_t t0 = MonoNs();
        const bool ok = session->Call(handles[q.proc], q.args).ok();
        const int64_t t1 = MonoNs();
        t.calls++;
        if (!ok) t.failed++;
        t.lat.push_back(Timed{static_cast<float>((t1 - t_start) * 1e-9),
                              static_cast<float>((t1 - t0) * 1e-3)});
        if (Sampled(i)) {
          RecordSpan("pacman.Session::Call", phase,
                     (static_cast<uint64_t>(c) << 48) | i, t0, t1);
        }
      }
    });
  }
  while (ready.load() < streams.size()) std::this_thread::yield();
  const double t0 = NowS();
  start.store(MonoNs());
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const double elapsed = NowS() - t0;
  for (ClientTally& t : tallies) {
    *calls += t.calls;
    *failed += t.failed;
    lat->insert(lat->end(), t.lat.begin(), t.lat.end());
  }
  return elapsed;
}

}  // namespace

void RunSmallbankEmbedded(Pass* p) {
  const Args& a = *p->args;
  pacman::workload::Smallbank sb(
      {.num_accounts = 100000, .hotspot_fraction = 0.10, .hotspot_size = 100});
  MaintenanceLog mlog;
  WorkloadDef w = SmallbankDef(&sb);
  w.options.checkpoint_event_hook = MaintenanceHook(&mlog);
  SimStore store(w.options.num_ssds);
  const uint64_t per_client = static_cast<uint64_t>(
      a.seconds * kEmbeddedCallsPerS / (kEmbeddedRounds * kEmbeddedClients));

  Setups setups;
  Windows windows;
  ForwardTotals totals;
  RestartResult restarts;
  pacman::maintenance::MaintenanceStats mstats;
  DeviceCounts writes;
  std::vector<std::vector<Request>> streams;
  for (int round = 0; round < kEmbeddedRounds; ++round) {
    const DeviceCounts writes0 = Counts(p);
    std::unique_ptr<Database> db = setups.Run(w, store.devices, p);
    // Procedure ids exist once a database has registered them.
    if (streams.empty()) streams = ClientStreams(w, a.seed, kEmbeddedClients);
    // The background checkpoint service runs beside the executor pool;
    // one executor hosts it and stays idle, since clients call in-thread.
    db->StartWorkers(1);
    std::vector<Timed> lat;
    uint64_t calls = 0, failed = 0;
    const ForwardTotals::Mark m0 = ForwardTotals::Take(db.get());
    const double elapsed =
        DriveEmbedded(db.get(), streams, per_client, &lat, &calls, &failed);
    totals.Add(m0, ForwardTotals::Take(db.get()));
    if (round == kEmbeddedRounds - 1) writes = Counts(p) - writes0;
    p->Ops(calls, failed, "Session::Call calls");
    std::printf("  round %d                      calls=%llu elapsed=%.3fs "
                "clients=%d\n",
                round, static_cast<unsigned long long>(calls), elapsed,
                kEmbeddedClients);
    windows.AddPhase(lat, elapsed, kWindowS);
    if (round == 0) p->e2e["peak_rss_mb"] = PeakRssMb();
    AddStats(db->maintenance_stats(), &mstats);

    const uint64_t hash =
        CommitTailAndCrash(db.get(), w, a.seed, kSmallbankTailTxns, p);
    db.reset();
    ForwardRestarts(w, store.devices, hash, kEmbeddedRestartsPerRound, p,
                    &restarts);
  }
  setups.Report(p);
  p->e2e["tput"] = windows.Report("call latency (Session::Call)");
  ReportRestarts(&restarts, p);
  ReportMaintenance(&mlog, mstats, p);
  totals.Report(writes, p);
  if (p->traced) RunLadder(w, a.seed, p);
}

// --- tpcc_recover ----------------------------------------------------------

namespace {

constexpr size_t kTpccLogTxns = 50000;
constexpr int kTpccRounds = 5;  // Setups; each writes the log image anew.
constexpr double kTpccAdhocShare = 0.10;
constexpr size_t kTpccProbeCalls = 20000;
constexpr double kTpccRestartsPerS = 1.0;

WorkloadDef TpccDef(pacman::workload::Tpcc* tpcc) {
  WorkloadDef w;
  w.options.scheme = pacman::logging::LogScheme::kCommand;
  w.install_schema = [tpcc](Database* db) {
    tpcc->CreateTables(db->catalog());
    tpcc->RegisterProcedures(db->registry());
  };
  w.load = [tpcc](Database* db) { tpcc->Load(db->catalog()); };
  w.next = [tpcc](Rng* rng) {
    Request r;
    r.proc = tpcc->NextTransaction(rng, &r.args);
    r.adhoc = rng->Bernoulli(kTpccAdhocShare);
    return r;
  };
  w.read_only = [tpcc](Rng* rng) {
    Request r;
    do {
      r.proc = tpcc->NextTransaction(rng, &r.args);
    } while (r.proc != tpcc->stock_level_id() &&
             r.proc != tpcc->order_status_id());
    return r;
  };
  w.ladder_txns = 20000;
  return w;
}

}  // namespace

void RunTpccRecover(Pass* p) {
  const Args& a = *p->args;
  // The repository's bench TPC-C configuration (4 warehouses).
  pacman::workload::Tpcc tpcc({.num_warehouses = 4,
                               .districts_per_warehouse = 10,
                               .customers_per_district = 100,
                               .num_items = 500,
                               .orders_per_district = 16});
  WorkloadDef w = TpccDef(&tpcc);
  // Per process, so two runs in one checkout never share an image.
  const std::string dir =
      a.out_dir + "/data/tpcc_recover-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  w.options.device = pacman::device::DeviceKind::kFile;
  w.options.log_dir = dir;
  std::vector<std::unique_ptr<pacman::device::FileDevice>> owned;
  std::vector<StorageDevice*> devs;
  for (uint32_t i = 0; i < w.options.num_ssds; ++i) {
    pacman::device::FileDeviceConfig cfg;
    cfg.dir = dir + "/dev" + std::to_string(i);
    owned.push_back(std::make_unique<pacman::device::FileDevice>(cfg));
    devs.push_back(owned.back().get());
  }

  // Each round sets up (install + load + FinalizeSchema + checkpoint, then
  // log a fixed stream from one client session, fence, crash) and then
  // restarts from that image. One client makes the image a pure function
  // of the seed, so every round's image must be the same.
  std::vector<double> setup_s, finalize_s, ckpt_s;
  std::vector<uint64_t> fingerprints, setup_bytes, hashes;
  std::vector<Request> log_stream;
  ForwardTotals totals;
  DeviceCounts writes;
  RestartResult r;
  const int samples = std::max(
      1, static_cast<int>(a.seconds * kTpccRestartsPerS / kTpccRounds));
  for (int i = 0; i < kTpccRounds; ++i) {
    {
      Span s("bench.setup");
      SetPhase(s.id());
      const DeviceCounts writes0 = Counts(p);
      const double t0 = NowS();
      double fin = 0.0, ckpt = 0.0;
      std::unique_ptr<Database> db =
          SetupDatabase(w, devs, p->counters, &fin, &ckpt);
      ckpt_s.push_back(ckpt);
      // Procedure ids exist once a database has registered them.
      if (log_stream.empty()) {
        log_stream = MakeStream(w.next, a.seed * 1000003ull, kTpccLogTxns);
      }
      const ForwardTotals::Mark m0 = ForwardTotals::Take(db.get());
      uint64_t bad = 0;
      {
        Span g("bench.log_generation");
        auto session = db->OpenSession();
        for (const Request& q : log_stream) {
          pacman::TxnOptions o;
          o.adhoc = q.adhoc;
          if (!session->Call(db->proc(q.proc), q.args, o).ok()) bad++;
        }
      }
      p->Ops(log_stream.size(), bad, "log-generation calls");
      {
        Span f("logging.AdvanceEpoch");
        p->Check(db->AdvanceEpoch().status.ok(), "setup fence");
      }
      if (i == 0) totals.Add(m0, ForwardTotals::Take(db.get()));
      hashes.push_back(db->ContentHash());
      db->Crash();
      db.reset();
      setup_s.push_back(NowS() - t0);
      finalize_s.push_back(fin);
      writes = Counts(p) - writes0;
      setup_bytes.push_back(writes.bytes_written);
      fingerprints.push_back(FingerprintImage(devs));
    }
    RestartSpec spec;
    spec.w = &w;
    spec.options = WithDevices(w.options, devs, p->counters);
    spec.image = devs;
    spec.expected_hash = hashes.back();
    spec.samples = samples;
    spec.probe_calls = kTpccProbeCalls;
    spec.seed = a.seed;
    spec.expected_records = r.records;  // The first round's, once known.
    Span s("bench.measure");
    SetPhase(s.id());
    RunRestarts(spec, p, &r);
  }
  auto all_equal = [](const std::vector<uint64_t>& v) {
    return std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) ==
           v.end();
  };
  p->Check(all_equal(fingerprints),
           "every setup writes the same durable image");
  p->Check(all_equal(hashes), "every setup reaches the same content");
  if (p->traced) {
    p->Check(all_equal(setup_bytes),
             "every setup writes the same bytes through the device");
  }
  p->e2e["setup_s"] = Median(setup_s);
  p->layer["analysis.finalize_s"] = Median(finalize_s);
  std::printf("  setup                        n=%d median=%.4fs "
              "(FinalizeSchema %.4fs) log_txns=%zu\n",
              kTpccRounds, Median(setup_s), Median(finalize_s),
              log_stream.size());

  ReportRestarts(&r, p);
  p->e2e["tput"] = static_cast<double>(r.records) / p->e2e["recover_s"];
  std::printf("  restored                     %.0f txn/s of restart\n",
              p->e2e["tput"]);
  r.probes.Report("read-only call after restart");

  // Maintenance here is the setup's one checkpoint (checkpoint + stripes +
  // meta), taken synchronously so the image stays a function of the seed.
  p->layer["maintenance.cycles"] = 1.0;
  p->layer["maintenance.cycle_s_p50"] = Median(ckpt_s);
  p->layer["maintenance.batches_truncated"] = 0.0;
  p->layer["maintenance.failures"] = 0.0;
  totals.Report(writes, p);
  if (p->traced) RunLadder(w, a.seed, p);
  p->e2e["peak_rss_mb"] = r.peak_rss_mb;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
