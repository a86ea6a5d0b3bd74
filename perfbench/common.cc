#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "exec/thread_pool.h"
#include "recovery/log_pipeline.h"
#include "trace.h"

namespace perfbench {

uint32_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double CurrentRssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Dist::P(double q) {
  if (v_.empty()) return 0.0;
  if (sorted_ != v_.size()) {
    std::sort(v_.begin(), v_.end());
    sorted_ = v_.size();
  }
  const double rank = std::ceil(q * static_cast<double>(v_.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v_[std::min(idx, v_.size() - 1)];
}

double Dist::Mean() const {
  if (v_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v_) sum += x;
  return sum / static_cast<double>(v_.size());
}

double Dist::HighestSupported(double* value) {
  double best = 0.0;
  *value = 0.0;
  for (double q : {0.90, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(v_.size()) * (1.0 - q) < 10.0) break;
    best = q;
    *value = P(q);
  }
  return best;
}

void Pass::Check(bool ok, const std::string& what) {
  attempted++;
  if (ok) return;
  failed++;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Pass::Ops(uint64_t n, uint64_t bad, const char* what) {
  attempted += n;
  failed += bad;
  if (bad == 0) return;
  correct = false;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu of %llu %s failed",
                static_cast<unsigned long long>(bad),
                static_cast<unsigned long long>(n), what);
  std::printf("CHECK FAILED: %s\n", buf);
}

double FastestShareMean(std::vector<double> seconds) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(kBestShare * static_cast<double>(seconds.size())));
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += seconds[i];
  return sum / static_cast<double>(n);
}

void Windows::AddPhase(const std::vector<Timed>& calls, double elapsed_s,
                       double window_s) {
  const size_t first = windows_.size();
  windows_.resize(first + static_cast<size_t>(elapsed_s / window_s),
                  Window{{}, window_s});
  for (const Timed& c : calls) {
    pooled_.Add(c.lat_us);
    const size_t i = first + static_cast<size_t>(c.t_s / window_s);
    if (i < windows_.size()) windows_[i].lat_us.push_back(c.lat_us);
  }
  calls_ += static_cast<double>(calls.size());
  seconds_ += elapsed_s;
}

void Windows::AddWindow(std::vector<float> lat_us, double seconds) {
  for (float v : lat_us) pooled_.Add(v);
  calls_ += static_cast<double>(lat_us.size());
  seconds_ += seconds;
  windows_.push_back(Window{std::move(lat_us), seconds});
}

double Windows::Report(const char* label) {
  auto rate = [](const Window& w) {
    return static_cast<double>(w.lat_us.size()) / w.seconds;
  };
  std::vector<const Window*> order;
  for (const Window& w : windows_) order.push_back(&w);
  std::sort(order.begin(), order.end(), [&](const Window* a, const Window* b) {
    return rate(*a) > rate(*b);
  });
  const size_t best = std::min(
      order.size(),
      std::max<size_t>(1, static_cast<size_t>(
                              kBestShare * static_cast<double>(order.size()))));
  Dist lat;
  double calls = 0.0, seconds = 0.0;
  for (size_t k = 0; k < best; ++k) {
    for (float v : order[k]->lat_us) lat.Add(v);
    calls += static_cast<double>(order[k]->lat_us.size());
    seconds += order[k]->seconds;
  }
  double top = 0.0;
  const double q = pooled_.HighestSupported(&top);
  std::printf("  %-28s best quarter: %zu of %zu windows, %.0f/s p50=%.2fus "
              "p99=%.2fus | all: n=%zu %.0f/s p50=%.2fus p99=%.2fus highest "
              "supported p%g=%.2fus\n",
              label, best, windows_.size(), calls / seconds, lat.P(0.50),
              lat.P(0.99), pooled_.size(), calls_ / seconds_, pooled_.P(0.50),
              pooled_.P(0.99), q * 100.0, top);
  return calls / seconds;
}

std::vector<Request> MakeStream(const std::function<Request(Rng*)>& gen,
                                uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen(&rng));
  return out;
}

DatabaseOptions WithDevices(DatabaseOptions o,
                            const std::vector<StorageDevice*>& devices,
                            DeviceCounters* counters) {
  o.num_ssds = static_cast<uint32_t>(devices.size());
  // An untraced file-device run opens its directories itself: the
  // counting decorator is installed only in the traced run. The simulated
  // device always goes through the forwarder, because its in-memory image
  // has to outlive the Database that wrote it.
  if (counters == nullptr && o.device == pacman::device::DeviceKind::kFile) {
    return o;
  }
  o.device_factory = [devices, counters](uint32_t i) {
    return std::unique_ptr<StorageDevice>(
        new BenchDevice(devices[i], counters));
  };
  return o;
}

std::unique_ptr<Database> SetupDatabase(
    const WorkloadDef& w, const std::vector<StorageDevice*>& devices,
    DeviceCounters* counters, double* finalize_s, double* checkpoint_s) {
  for (StorageDevice* d : devices) d->RemoveAll();
  auto db = std::make_unique<Database>(WithDevices(w.options, devices,
                                                   counters));
  {
    Span s("storage.install");
    w.install_schema(db.get());
    w.load(db.get());
  }
  {
    Span s("analysis.FinalizeSchema");
    const double t0 = NowS();
    db->FinalizeSchema();
    *finalize_s = NowS() - t0;
  }
  {
    Span s("logging.TakeCheckpoint");
    const double t0 = NowS();
    db->TakeCheckpoint();
    *checkpoint_s = NowS() - t0;
  }
  return db;
}

uint64_t CommitTailAndCrash(Database* db, const WorkloadDef& w, uint64_t seed,
                            size_t txns, Pass* p) {
  if (db->workers_running()) db->StopWorkers();
  if (pacman::maintenance::CheckpointService* m = db->maintenance_service()) {
    Span s("maintenance.RunOnce");
    p->Check(m->RunOnce().ok(), "final maintenance cycle");
  }
  const std::vector<Request> tail = MakeStream(w.next, seed ^ 0x7a11ull, txns);
  uint64_t bad = 0;
  {
    Span s("bench.tail");
    auto session = db->OpenSession();
    for (const Request& q : tail) {
      pacman::TxnOptions o;
      o.adhoc = q.adhoc;
      if (!session->Call(db->proc(q.proc), q.args, o).ok()) bad++;
    }
  }
  p->Ops(txns, bad, "tail calls");
  {
    Span s("logging.AdvanceEpoch");
    p->Check(db->AdvanceEpoch().status.ok(), "tail fence");
  }
  const uint64_t hash = db->ContentHash();
  db->Crash();
  return hash;
}

void RunRestarts(const RestartSpec& spec, Pass* p, RestartResult* out) {
  RestartResult& r = *out;
  const bool first_block = r.total_s.empty();
  uint64_t block_records = 0, block_tuples = 0;
  const uint64_t fp0 = FingerprintImage(spec.image);
  const DeviceImage pristine = CaptureImage(spec.image);
  const std::vector<Request> probes = MakeStream(
      spec.w->read_only, spec.seed ^ 0x9e0bull,
      std::max<size_t>(spec.probe_calls, 1) + spec.samples);
  size_t next_probe = 0;
  for (int i = 0; i < spec.samples; ++i) {
    if (FingerprintImage(spec.image) != fp0) {
      // Recover or the probe left a trace in the image (a truncated or
      // rewritten batch, a new batch file): put the pristine image back so
      // every sample recovers the same bytes.
      r.restores++;
      const bool ok = RestoreImage(spec.image, pristine).ok() &&
                      FingerprintImage(spec.image) == fp0;
      p->Check(ok, "restore the durable image");
      if (!ok) break;
    }
    const DeviceCounts c0 =
        p->counters != nullptr ? p->counters->Snapshot() : DeviceCounts{};
    // A restart sample's spans share one request id.
    const uint64_t req = (uint64_t{1} << 62) | static_cast<uint64_t>(i);
    Span sample("recovery.restart", req);
    const double t0 = NowS();
    std::unique_ptr<Database> db;
    {
      Span s("recovery.open", req);
      db = std::make_unique<Database>(spec.options);
      spec.w->install_schema(db.get());
      Span a("analysis.FinalizeSchema", req);
      db->FinalizeSchema();
    }
    const double t1 = NowS();
    pacman::FullRecoveryResult rec;
    {
      Span s("recovery.Recover", req);
      pacman::recovery::RecoveryOptions ro;
      ro.num_threads = Nproc();
      rec = db->Recover(pacman::recovery::Scheme::kClrP, ro,
                        pacman::ExecutionBackend::kThreads);
    }
    const double t2 = NowS();
    bool served = false;
    std::unique_ptr<pacman::Session> session;
    {
      Span s("recovery.first_call", req);
      db->StartWorkers(2);
      session = db->OpenSession();
      const Request& q = probes[next_probe++ % probes.size()];
      served = session->Submit(db->proc(q.proc), q.args).Get().ok();
    }
    const double t3 = NowS();
    p->Check(served, "first call after restart");
    r.total_s.push_back(t3 - t0);
    r.open_s.push_back(t1 - t0);
    r.call_s.push_back(t2 - t1);
    r.first_s.push_back(t3 - t2);
    const uint64_t records =
        rec.checkpoint.records_replayed + rec.log.records_replayed;
    const uint64_t tuples =
        rec.checkpoint.tuples_restored + rec.log.tuples_restored;
    p->Check(db->ContentHash() == spec.expected_hash,
             "recovered content hash equals the pre-crash hash");
    if (i == 0) {
      if (first_block) {
        r.peak_rss_mb = PeakRssMb();
        r.records = records;
        r.tuples = tuples;
      }
      block_records = records;
      block_tuples = tuples;
      p->Check(records > 0, "restart replays the log tail");
      p->Check(spec.expected_records == 0 || records == spec.expected_records,
               "restart replays the expected records");
    } else {
      p->Check(records == block_records && tuples == block_tuples,
               "every restart replays the same records");
    }
    // Read-only calls on the freshly served database; each sample's burst
    // is one latency window.
    uint64_t bad = 0;
    std::vector<float> burst;
    burst.reserve(spec.probe_calls);
    const int64_t burst0 = MonoNs();
    for (size_t j = 0; j < spec.probe_calls; ++j) {
      const Request& q = probes[next_probe++ % probes.size()];
      const int64_t a = MonoNs();
      if (!session->Call(db->proc(q.proc), q.args).ok()) bad++;
      const int64_t b = MonoNs();
      burst.push_back(static_cast<float>((b - a) * 1e-3));
      if (Sampled(j)) {
        RecordSpan("pacman.Session::Call", sample.id(), req, a, b);
      }
    }
    if (spec.probe_calls > 0) {
      r.probes.AddWindow(std::move(burst),
                         static_cast<double>(MonoNs() - burst0) * 1e-9);
    }
    p->Ops(spec.probe_calls, bad, "restart probe calls");
    session.reset();
    db->StopWorkers();
    db.reset();
    if (p->counters != nullptr) {
      const DeviceCounts c = p->counters->Snapshot() - c0;
      if (i > 0) {
        p->Check(c.bytes_read == r.per_sample.bytes_read,
                 "every restart reads the same bytes");
      }
      r.per_sample = c;
    }
  }
  if (p->traced && first_block) {
    // The log load stage alone over the same image.
    pacman::exec::ThreadPool pool(Nproc(), "bench-load");
    pacman::recovery::LogPipelineOptions lo;
    lo.num_threads = Nproc();
    lo.num_ssds = static_cast<uint32_t>(spec.image.size());
    Span s("recovery.PipelinedLogLoader");
    const double t0 = NowS();
    pacman::recovery::PipelinedLogLoader loader(
        spec.options.scheme, spec.image, &pool, lo);
    loader.Start();
    p->Check(loader.WaitAll().ok(), "pipelined log load");
    r.load_s = NowS() - t0;
  }
}

void ReportRestarts(RestartResult* r, Pass* p) {
  const double total = FastestShareMean(r->total_s);
  std::printf("  restart-to-serving           n=%zu best-quarter=%.4fs median=%.4fs "
              "(median open %.4fs, Recover %.4fs, first call %.4fs) "
              "records=%llu tuples=%llu image_restores=%d\n",
              r->total_s.size(), total, Median(r->total_s), Median(r->open_s),
              Median(r->call_s), Median(r->first_s),
              static_cast<unsigned long long>(r->records),
              static_cast<unsigned long long>(r->tuples), r->restores);
  p->e2e["recover_s"] = total;
  p->layer["recovery.open_s"] = Median(r->open_s);
  p->layer["recovery.call_s"] = Median(r->call_s);
  p->layer["recovery.first_call_s"] = Median(r->first_s);
  p->layer["recovery.load_s"] = r->load_s;
  p->layer["recovery.records_replayed"] = static_cast<double>(r->records);
  p->layer["recovery.tuples_restored"] = static_cast<double>(r->tuples);
  if (p->traced) {
    p->layer["device.bytes_read"] = static_cast<double>(r->per_sample.bytes_read);
    p->layer["device.read_busy_s"] =
        static_cast<double>(r->per_sample.read_ns) * 1e-9;
    std::printf("  device reads per restart     reads=%llu bytes=%llu "
                "busy=%.4fs\n",
                static_cast<unsigned long long>(r->per_sample.reads),
                static_cast<unsigned long long>(r->per_sample.bytes_read),
                static_cast<double>(r->per_sample.read_ns) * 1e-9);
  }
}

pacman::maintenance::CheckpointEventHook MaintenanceHook(MaintenanceLog* log) {
  return [log](const pacman::maintenance::CheckpointEvent& ev) {
    const int64_t end = MonoNs();
    RecordSpan("maintenance.cycle", CurrentParent(), 0,
               end - static_cast<int64_t>(ev.seconds * 1e9), end);
    std::lock_guard<std::mutex> g(log->mu);
    log->cycle_s.push_back(ev.seconds);
  };
}

void ReportMaintenance(MaintenanceLog* log,
                       const pacman::maintenance::MaintenanceStats& stats,
                       Pass* p) {
  std::lock_guard<std::mutex> g(log->mu);
  const double cycle_p50 = Median(log->cycle_s);
  std::printf("  maintenance                  cycles=%llu cycle_p50=%.4fs "
              "batches_truncated=%llu failures=%llu\n",
              static_cast<unsigned long long>(stats.checkpoints),
              cycle_p50,
              static_cast<unsigned long long>(stats.batches_deleted),
              static_cast<unsigned long long>(stats.checkpoint_failures));
  p->Check(stats.checkpoint_failures == 0, "no failed checkpoint cycle");
  p->layer["maintenance.cycles"] = static_cast<double>(stats.checkpoints);
  p->layer["maintenance.cycle_s_p50"] = cycle_p50;
  p->layer["maintenance.batches_truncated"] =
      static_cast<double>(stats.batches_deleted);
  p->layer["maintenance.failures"] =
      static_cast<double>(stats.checkpoint_failures);
}

void ReportDeviceWrites(const DeviceCounts& writes, Pass* p) {
  if (!p->traced) return;
  p->layer["device.appends"] = static_cast<double>(writes.appends);
  p->layer["device.fsyncs"] = static_cast<double>(writes.fsyncs);
  p->layer["device.bytes_written"] = static_cast<double>(writes.bytes_written);
  p->layer["device.write_busy_s"] = static_cast<double>(writes.write_ns) * 1e-9;
  std::printf("  device writes                appends=%llu writes=%llu "
              "fsyncs=%llu bytes=%llu busy=%.4fs\n",
              static_cast<unsigned long long>(writes.appends),
              static_cast<unsigned long long>(writes.writes),
              static_cast<unsigned long long>(writes.fsyncs),
              static_cast<unsigned long long>(writes.bytes_written),
              static_cast<double>(writes.write_ns) * 1e-9);
}

}  // namespace perfbench
