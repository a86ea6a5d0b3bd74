// End-to-end benchmark of the PACMAN reproduction.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// Workloads: smallbank_embedded, tpcc_recover (workloads.cc).
// Prints host facts and every metric by name with its unit, then, as the
// last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice in this process, untraced and then traced; the
// traced pass also runs the per-layer ladder, keeps spans in memory and
// writes them as JSONL under DIR, and the metrics are the per-layer ones
// plus the tracing overhead: traced / untraced for every end-to-end metric
// except peak_rss_mb, a process-wide high-water mark the untraced pass
// already set.
// Exits 3 when a correctness check failed, 2 on bad arguments or a
// non-Release build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct E2eMetric {
  const char* name;
  const char* unit;
};
// fail_share is carried by the result's attempted/failed fields. Call
// latency (p50, p99 and the highest supported percentile, with sample
// counts) is printed but not reported: on smallbank_embedded its p50 is the
// closed loop's 4 / tput, and on tpcc_recover it is a ~2 us read-only call
// whose run-to-run spread on a shared 4-vCPU KVM guest reached 0.32 of its
// median over ten runs, past any bound this benchmark could hold.
constexpr E2eMetric kE2e[] = {
    {"tput", "1/s"},
    {"recover_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayers[] = {
    {"net.self_us", "us"},
    {"net.fence_p99_us", "us"},
    {"net.calls", "count"},
    {"net.shed", "count"},
    {"net.protocol_errors", "count"},
    {"pacman.queue_us", "us"},
    {"pacman.call_overhead_ns", "ns"},
    {"proc.vm_ns_per_txn", "ns"},
    {"storage.access_ns_per_txn", "ns"},
    {"storage.rss_mb_per_mtxn", "MB"},
    {"txn.commit_ns_per_txn", "ns"},
    {"txn.abort_rate", "ratio"},
    {"txn.retries_per_txn", "count"},
    {"txn.lock_waits_per_txn", "count"},
    {"logging.bytes_per_txn", "B"},
    {"logging.flushes", "count"},
    {"logging.flush_us_p50", "us"},
    {"logging.flush_us_p99", "us"},
    {"device.appends", "count"},
    {"device.fsyncs", "count"},
    {"device.bytes_written", "B"},
    {"device.write_busy_s", "s"},
    {"device.bytes_read", "B"},
    {"device.read_busy_s", "s"},
    {"maintenance.cycles", "count"},
    {"maintenance.cycle_s_p50", "s"},
    {"maintenance.batches_truncated", "count"},
    {"maintenance.failures", "count"},
    {"analysis.finalize_s", "s"},
    {"recovery.open_s", "s"},
    {"recovery.call_s", "s"},
    {"recovery.first_call_s", "s"},
    {"recovery.load_s", "s"},
    {"recovery.records_replayed", "count"},
    {"recovery.tuples_restored", "count"},
};
// Tracing overhead: traced / untraced value of these end-to-end metrics.
constexpr const char* kOverhead[] = {"tput", "recover_s", "setup_s"};

const char* WorkloadFacts(const std::string& w) {
  if (w == "smallbank_embedded") {
    return "client_threads=4 connections=0 executors=1(idle; hosts "
           "maintenance) device=sim";
  }
  return "client_threads=1(setup) connections=0 executors=2 "
         "recovery_threads=nproc device=file";
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload smallbank_embedded|tpcc_recover "
               "--seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-sha SHA] [--source-digest HEX]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
  }
  return (a->workload == "smallbank_embedded" ||
          a->workload == "tpcc_recover") &&
         a->seconds > 0.0;
}

void RunPass(Pass* p) {
  const std::string& w = p->args->workload;
  std::printf("pass: %s\n", p->traced ? "traced" : "untraced");
  if (w == "smallbank_embedded") {
    RunSmallbankEmbedded(p);
  } else {
    RunTpccRecover(p);
  }
}

void PrintMetric(bool* first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::printf("host: nproc=%u build=%s git_sha=%s source_digest=%s "
              "clock=wall(steady_clock) seed=%llu seconds=%g trace=%d\n",
              Nproc(), PERFBENCH_BUILD_TYPE, args.git_sha.c_str(),
              args.source_digest.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("workload: %s %s\n", args.workload.c_str(),
              WorkloadFacts(args.workload));

  Pass plain;
  plain.args = &args;
  RunPass(&plain);
  Pass* result = &plain;

  DeviceCounters counters;
  Pass traced;
  if (args.trace) {
    traced.args = &args;
    traced.traced = true;
    traced.counters = &counters;
    EnableTrace(true);
    RunPass(&traced);
    EnableTrace(false);
    std::vector<SpanRec> spans = TakeSpans();
    const auto self = SelfTimeByLayer(spans);
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    const bool wrote = WriteTraceJsonl(path, spans, self);
    traced.Check(wrote, "write the span trace");
    std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
    std::printf("self time by layer (sampled request spans, 1 in %llu):\n",
                static_cast<unsigned long long>(kSampleEvery));
    for (const auto& [layer, l] : self) {
      std::printf("  %-12s self=%.6fs spans=%llu\n", layer.c_str(), l.self_s,
                  static_cast<unsigned long long>(l.spans));
    }
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.correct = traced.correct && plain.correct;
    result = &traced;
  }

  std::printf("metrics:\n");
  for (const E2eMetric& m : kE2e) {
    std::printf("  %-32s %.6g %s\n", m.name, plain.e2e[m.name], m.unit);
  }
  if (args.trace) {
    for (const LayerMetric& m : kLayers) {
      std::printf("  %-32s %.6g %s\n", m.name, traced.layer[m.name], m.unit);
    }
    for (const char* m : kOverhead) {
      std::printf("  trace.%s_ratio%*s %.4f (traced %.6g / untraced %.6g)\n",
                  m, static_cast<int>(20 - std::strlen(m)), "",
                  traced.e2e[m] / plain.e2e[m], traced.e2e[m], plain.e2e[m]);
    }
  }
  std::printf("fail_share: %llu / %llu\n",
              static_cast<unsigned long long>(result->failed),
              static_cast<unsigned long long>(result->attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result->correct ? "true" : "false",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed));
  bool first = true;
  if (!args.trace) {
    for (const E2eMetric& m : kE2e) {
      PrintMetric(&first, m.name, plain.e2e[m.name], m.unit);
    }
  } else {
    for (const LayerMetric& m : kLayers) {
      PrintMetric(&first, m.name, traced.layer[m.name], m.unit);
    }
    for (const char* m : kOverhead) {
      const std::string name = std::string("trace.") + m + "_ratio";
      PrintMetric(&first, name.c_str(), traced.e2e[m] / plain.e2e[m],
                  "ratio");
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result->correct ? 0 : 3;
}
