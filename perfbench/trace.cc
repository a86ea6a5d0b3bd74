#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_phase{0};
std::atomic<uint32_t> g_next_thread{0};

struct Buffers {
  std::mutex mu;  // Guards `all`.
  std::vector<std::unique_ptr<std::vector<SpanRec>>> all;
};
Buffers& GlobalBuffers() {
  static Buffers* b = new Buffers();  // Outlives every recording thread.
  return *b;
}

struct ThreadState {
  std::vector<SpanRec>* buf = nullptr;
  uint32_t thread = 0;
  std::vector<uint64_t> open;  // Stack of open Span ids.
};
thread_local ThreadState t_state;

std::vector<SpanRec>* ThreadBuffer() {
  if (t_state.buf == nullptr) {
    Buffers& b = GlobalBuffers();
    std::lock_guard<std::mutex> g(b.mu);
    b.all.push_back(std::make_unique<std::vector<SpanRec>>());
    t_state.buf = b.all.back().get();
    t_state.buf->reserve(1 << 12);
    t_state.thread = g_next_thread.fetch_add(1);
  }
  return t_state.buf;
}

const char* LayerEnd(const char* name) {
  const char* dot = name;
  while (*dot != '\0' && *dot != '.') ++dot;
  return dot;
}

}  // namespace

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool TraceEnabled() { return g_enabled.load(std::memory_order_relaxed); }
void EnableTrace(bool on) { g_enabled.store(on); }
uint64_t NewSpanId() { return g_next_id.fetch_add(1); }
void SetPhase(uint64_t span_id) { g_phase.store(span_id); }

uint64_t CurrentParent() {
  if (!t_state.open.empty()) return t_state.open.back();
  return g_phase.load(std::memory_order_relaxed);
}

void RecordSpan(const char* name, uint64_t parent, uint64_t req,
                int64_t start_ns, int64_t end_ns, uint64_t id) {
  if (!TraceEnabled()) return;
  std::vector<SpanRec>* buf = ThreadBuffer();
  buf->push_back(SpanRec{id != 0 ? id : NewSpanId(), parent, req, start_ns,
                         end_ns, name, t_state.thread});
}

std::vector<SpanRec> TakeSpans() {
  Buffers& b = GlobalBuffers();
  std::lock_guard<std::mutex> g(b.mu);
  std::vector<SpanRec> out;
  for (auto& buf : b.all) {
    out.insert(out.end(), buf->begin(), buf->end());
    buf->clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRec& a, const SpanRec& b2) {
              return a.start_ns < b2.start_ns;
            });
  return out;
}

Span::Span(const char* name, uint64_t req) : name_(name), req_(req) {
  if (!TraceEnabled()) return;
  id_ = NewSpanId();
  parent_ = CurrentParent();
  t_state.open.push_back(id_);
  start_ns_ = MonoNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = MonoNs();
  t_state.open.pop_back();
  RecordSpan(name_, parent_, req_, start_ns_, end, id_);
}

std::map<std::string, LayerSelf> SelfTimeByLayer(
    const std::vector<SpanRec>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::map<std::string, LayerSelf> out;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    // Union of the children's intervals, clipped to this span: children
    // on other threads may overlap each other.
    cover.clear();
    for (size_t c : children[i]) {
      const int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : cover) {
      if (cur_b < a) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    LayerSelf& l = out[std::string(s.name, LayerEnd(s.name))];
    l.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    l.spans++;
  }
  return out;
}

bool WriteTraceJsonl(const std::string& path,
                     const std::vector<SpanRec>& spans,
                     const std::map<std::string, LayerSelf>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"req\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"thread\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - t0) * 1e-3, s.thread);
  }
  std::fprintf(f, "{\"summary\":\"self_time_by_layer\",\"layers\":{");
  bool first = true;
  for (const auto& [layer, l] : self) {
    std::fprintf(f, "%s\"%s\":{\"self_s\":%.9f,\"spans\":%llu}",
                 first ? "" : ",", layer.c_str(), l.self_s,
                 static_cast<unsigned long long>(l.spans));
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
