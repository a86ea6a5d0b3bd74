// Shared pieces of the end-to-end benchmark: run arguments, the result a
// pass reports, latency distributions, the per-workload definition the
// restart path and the per-layer ladder run on, and the workload entry
// points.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/value.h"
#include "device.h"
#include "pacman/database.h"

namespace perfbench {

using pacman::Database;
using pacman::DatabaseOptions;
using pacman::ProcId;
using pacman::Rng;
using pacman::Value;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

uint32_t Nproc();
double NowS();
double PeakRssMb();     // getrusage high-water mark.
double CurrentRssMb();  // /proc/self/statm.
double Median(std::vector<double> v);

// Raw latency samples; percentiles by nearest rank.
class Dist {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  double Mean() const;
  // Sorts on first use after an Add.
  double P(double q);
  // Highest of p90/p99/p99.9/p99.99 with at least ten samples beyond it
  // (0 when even p90 is unsupported); its value goes to *value.
  double HighestSupported(double* value);

 private:
  std::vector<double> v_;
  size_t sorted_ = 0;
};

// What one pass (untraced or traced) of a workload found.
struct Pass {
  const Args* args = nullptr;
  bool traced = false;
  DeviceCounters* counters = nullptr;  // Non-null only when traced.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  // Counts one checked operation; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  // Counts `n` operations of which `bad` failed (calls, fences, ...).
  void Ops(uint64_t n, uint64_t bad, const char* what);
};

// Best-share estimators. On a shared 4-vCPU KVM guest the CPU speed drifts
// by up to 1.5x over multi-second stretches (a fixed loop's 10 s medians
// spread 26% between stretches, their fastest 30 ms samples 4%), and a
// thread that lands on a slow vCPU stays slow for a while, so a whole-run
// average or median mostly measures the host. Each time metric is
// therefore measured per window -- a slice of a forward phase, one restart
// sample, or one burst of probe calls -- and reported over the run's best
// quarter of windows: the quarter with the highest throughput, or the
// quarter of fastest restarts.
inline constexpr double kBestShare = 0.25;

// Mean of the smallest kBestShare of `seconds` (at least one value).
double FastestShareMean(std::vector<double> seconds);

// One completed call: completion time since the start of the measured
// phase, and its latency.
struct Timed {
  float t_s;
  float lat_us;
};

// Latency windows: fixed time slices of a forward phase, or the burst of
// probe calls after one restart.
class Windows {
 public:
  // Slices `calls` into full `window_s` windows by completion time.
  void AddPhase(const std::vector<Timed>& calls, double elapsed_s,
                double window_s);
  void AddWindow(std::vector<float> lat_us, double seconds);
  // Prints the best quarter of windows by throughput (their rate and
  // pooled p50 and p99) next to the pooled distribution of every call
  // (count, p50, p99 and the highest percentile with at least ten samples
  // beyond it). Returns the best quarter's rate.
  double Report(const char* label);

 private:
  struct Window {
    std::vector<float> lat_us;
    double seconds;
  };
  std::vector<Window> windows_;
  Dist pooled_;
  double calls_ = 0.0, seconds_ = 0.0;
};

struct Request {
  ProcId proc = 0;
  std::vector<Value> args;
  bool adhoc = false;
};

// A workload as the restart path and the ladder see it.
struct WorkloadDef {
  DatabaseOptions options;                       // Base engine options.
  std::function<void(Database*)> install_schema;  // Tables + procedures.
  std::function<void(Database*)> load;            // Initial rows.
  std::function<Request(Rng*)> next;              // The workload's mix.
  std::function<Request(Rng*)> read_only;         // Serving probe.
  size_t ladder_txns = 100000;
};

std::vector<Request> MakeStream(const std::function<Request(Rng*)>& gen,
                                uint64_t seed, size_t n);

// Builds a database over `devices` (BenchDevice forwarders, counting when
// `counters` is set), installs schema and data, finalizes, checkpoints.
// Times the steps as spans; the FinalizeSchema and TakeCheckpoint wall
// times go to *finalize_s and *checkpoint_s.
std::unique_ptr<Database> SetupDatabase(
    const WorkloadDef& w, const std::vector<StorageDevice*>& devices,
    DeviceCounters* counters, double* finalize_s, double* checkpoint_s);
DatabaseOptions WithDevices(DatabaseOptions o,
                            const std::vector<StorageDevice*>& devices,
                            DeviceCounters* counters);

// --- Restart-to-serving ---------------------------------------------------
struct RestartSpec {
  const WorkloadDef* w = nullptr;
  DatabaseOptions options;               // How a restarted process opens.
  std::vector<StorageDevice*> image;     // The devices holding the image.
  uint64_t expected_hash = 0;
  int samples = 7;
  size_t probe_calls = 0;     // Read-only calls timed after serving.
  uint64_t seed = 1;
  // Records every sample must replay; 0 takes the block's first sample.
  uint64_t expected_records = 0;
};

// Restart samples, accumulated over one or more blocks (each block over
// its own image).
struct RestartResult {
  std::vector<double> total_s, open_s, call_s, first_s;
  uint64_t records = 0;
  uint64_t tuples = 0;
  Windows probes;  // One window per sample's probe burst.
  int restores = 0;
  double load_s = 0.0;      // PipelinedLogLoader alone (traced only).
  double peak_rss_mb = 0.0;  // Process peak after the first sample.
  DeviceCounts per_sample;  // Device traffic of one restart (traced only).
};

// Samples restart-to-first-served-call over a fixed durable image and
// appends them to *r: each sample opens a fresh Database, reinstalls
// schema and procedures, FinalizeSchema, Recover(kClrP, real threads),
// StartWorkers and one read-only call through the executor pool. Checks
// the recovered content hash every time and that every sample of the
// block replays the same record count, and restores the image from a
// pristine copy whenever a sample changed it. The traced run also times
// the PipelinedLogLoader alone over the first block's image.
void RunRestarts(const RestartSpec& spec, Pass* p, RestartResult* r);
void ReportRestarts(RestartResult* r, Pass* p);

// Forward workloads end with a fixed tail so every restart replays the
// same amount of log: stop the executors, run one maintenance cycle
// (checkpoint + truncation), commit `txns` requests from one session,
// fence, and crash. Returns the pre-crash content hash.
uint64_t CommitTailAndCrash(Database* db, const WorkloadDef& w, uint64_t seed,
                            size_t txns, Pass* p);

// --- Per-layer ladder (traced run) ----------------------------------------
// Times the workload's own request stream at each rung: VM over a stub
// access, VM over ReplayAccess, Database::Execute, Session::Call,
// PostToService, the wire, and Session::Call at four threads.
void RunLadder(const WorkloadDef& w, uint64_t seed, Pass* p);

// --- Workloads ------------------------------------------------------------
void RunSmallbankEmbedded(Pass* p);
void RunTpccRecover(Pass* p);

// Maintenance events observed through DatabaseOptions::checkpoint_event_hook.
struct MaintenanceLog {
  std::mutex mu;  // The hook runs on the maintenance thread.
  std::vector<double> cycle_s;
};
pacman::maintenance::CheckpointEventHook MaintenanceHook(MaintenanceLog* log);
void ReportMaintenance(MaintenanceLog* log,
                       const pacman::maintenance::MaintenanceStats& stats,
                       Pass* p);
void ReportDeviceWrites(const DeviceCounts& writes, Pass* p);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
