// Span tracing for the benchmark's traced run.
//
// Spans are recorded only in benchmark code, around calls into the
// engine's public entry points (and from the counting device decorator).
// They stay in per-thread memory buffers while the run executes and are
// written out as JSONL when it ends. Every span has a name of the form
// "<layer>.<what>", a start, an end, the span that caused it (its parent)
// and the id of the request it belongs to (0 for non-request work).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t req = 0;     // Request id shared by a request's spans; 0 = none.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const char* name = "";  // String literal: "<layer>.<what>".
  uint32_t thread = 0;
};

int64_t MonoNs();

// Per-request spans are kept for one request in kSampleEvery, so a run of
// millions of calls keeps a bounded span buffer; all other spans are kept.
inline constexpr uint64_t kSampleEvery = 16;
inline bool Sampled(uint64_t req) { return req % kSampleEvery == 0; }

bool TraceEnabled();
void EnableTrace(bool on);
uint64_t NewSpanId();
// Default parent for a span opened on this thread: the innermost open
// Span of the thread, else the current phase span (engine threads such as
// loggers have no open span of their own).
uint64_t CurrentParent();
void SetPhase(uint64_t span_id);
void RecordSpan(const char* name, uint64_t parent, uint64_t req,
                int64_t start_ns, int64_t end_ns, uint64_t id = 0);
// Moves every recorded span out of the buffers. Call while no thread
// records.
std::vector<SpanRec> TakeSpans();

// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t req_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

// Self time per layer: each span's duration minus the part of its
// interval covered by its children, summed by layer name prefix.
struct LayerSelf {
  double self_s = 0.0;
  uint64_t spans = 0;
};
std::map<std::string, LayerSelf> SelfTimeByLayer(
    const std::vector<SpanRec>& spans);

// Writes one JSON object per span plus a closing per-layer summary line.
bool WriteTraceJsonl(const std::string& path,
                     const std::vector<SpanRec>& spans,
                     const std::map<std::string, LayerSelf>& self);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
