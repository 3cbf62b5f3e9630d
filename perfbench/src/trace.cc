#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace sargus::perfbench::trace {
namespace {

/// Per-thread span cap: a traced pass stays well under it, and a runaway
/// loop cannot exhaust memory.
constexpr size_t kMaxSpansPerThread = size_t{3} << 20;

/// Spans written to the span file; the summary covers all of them.
constexpr uint64_t kMaxSpansWritten = 1'000'000;

struct Rec {
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;  // index in the same buffer; -1 = none
  uint32_t request = 0;
  uint16_t name = 0;
};

struct Buffer {
  uint16_t thread = 0;
  std::vector<Rec> recs;
  std::vector<int32_t> open;  // indices of this thread's open spans
  uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards g_buffers and g_names
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::vector<std::string> g_names;

Buffer& LocalBuffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto b = std::make_unique<Buffer>();
    b->thread = static_cast<uint16_t>(g_buffers.size());
    b->recs.reserve(size_t{1} << 16);
    buf = b.get();
    g_buffers.push_back(std::move(b));
  }
  return *buf;
}

/// Appends a record under the innermost open span; returns its index, or
/// -1 when the buffer is full.
int64_t Append(Buffer& buf, uint16_t name, int64_t start, int64_t end,
               uint32_t request) {
  if (buf.recs.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return -1;
  }
  const int32_t parent = buf.open.empty() ? -1 : buf.open.back();
  buf.recs.push_back(Rec{start, end, parent, request, name});
  return static_cast<int64_t>(buf.recs.size() - 1);
}

int64_t Duration(const Rec& r) { return std::max<int64_t>(0, r.end - r.start); }

/// Summed durations of each span's direct children. Caller holds g_mu.
std::vector<int64_t> ChildTimeLocked(const Buffer& buf) {
  std::vector<int64_t> child(buf.recs.size(), 0);
  for (const Rec& r : buf.recs) {
    if (r.parent >= 0) child[r.parent] += Duration(r);
  }
  return child;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint16_t Name(const char* name) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t i = 0; i < g_names.size(); ++i) {
    if (g_names[i] == name) return static_cast<uint16_t>(i);
  }
  g_names.emplace_back(name);
  return static_cast<uint16_t>(g_names.size() - 1);
}

void Record(uint16_t name, int64_t start_ns, int64_t end_ns,
            uint32_t request) {
  if (!Enabled()) return;
  Append(LocalBuffer(), name, start_ns, end_ns, request);
}

Span::Span(uint16_t name, uint32_t request) {
  if (!Enabled()) return;
  Buffer& buf = LocalBuffer();
  index_ = Append(buf, name, NowNs(), 0, request);
  if (index_ >= 0) buf.open.push_back(static_cast<int32_t>(index_));
}

Span::~Span() {
  if (index_ < 0) return;
  Buffer& buf = LocalBuffer();
  buf.recs[index_].end = NowNs();
  buf.open.pop_back();
}

std::vector<NameStats> Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<NameStats> out(g_names.size());
  for (size_t i = 0; i < g_names.size(); ++i) out[i].name = g_names[i];
  for (const auto& b : g_buffers) {
    const std::vector<int64_t> child = ChildTimeLocked(*b);
    for (size_t i = 0; i < b->recs.size(); ++i) {
      const Rec& r = b->recs[i];
      const int64_t dur = Duration(r);
      NameStats& s = out[r.name];
      s.count += 1;
      s.total_s += static_cast<double>(dur) * 1e-9;
      s.self_s += static_cast<double>(std::max<int64_t>(0, dur - child[i])) *
                  1e-9;
    }
  }
  return out;
}

NameStats Find(const std::vector<NameStats>& all, const char* name) {
  for (const NameStats& s : all) {
    if (s.name == name) return s;
  }
  NameStats none;
  none.name = name;
  return none;
}

uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->recs.size();
  return n;
}

uint64_t DroppedCount() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->dropped;
  return n;
}

bool Flush(const std::string& path) {
  const std::vector<NameStats> stats = Summarize();
  const uint64_t total = SpanCount();
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# spans_total\t%llu\tspans_written\t%llu\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(
                   std::min(total, kMaxSpansWritten)));
  std::fprintf(out, "# summary\tname\tcount\ttotal_s\tself_s\tmean_us\n");
  for (const NameStats& s : stats) {
    std::fprintf(out, "# summary\t%s\t%llu\t%.6f\t%.6f\t%.3f\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.count),
                 s.total_s, s.self_s, s.mean_us());
  }
  std::fprintf(out, "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\t"
                    "self_ns\n");
  uint64_t written = 0;
  for (const auto& b : g_buffers) {
    const std::vector<int64_t> child = ChildTimeLocked(*b);
    for (size_t i = 0; i < b->recs.size() && written < kMaxSpansWritten;
         ++i, ++written) {
      const Rec& r = b->recs[i];
      std::fprintf(out, "%u\t%zu\t%d\t%u\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned>(b->thread), i, r.parent, r.request,
                   g_names[r.name].c_str(), static_cast<long long>(r.start),
                   static_cast<long long>(r.end),
                   static_cast<long long>(Duration(r) - child[i]));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace sargus::perfbench::trace
