#ifndef SARGUS_PERFBENCH_TRACE_H_
#define SARGUS_PERFBENCH_TRACE_H_

/// \file trace.h
/// \brief In-memory span recorder for the benchmark's traced run.
///
/// A span is (name, start, end, parent, request id). Spans are recorded
/// from the benchmark's own files around each call into a library layer;
/// nothing inside the library is instrumented. Each thread appends to its
/// own buffer, so recording takes no lock; buffers live until the process
/// ends and are read only after every recording thread has been joined.
/// When tracing is off a Span costs one relaxed atomic load.
///
/// The parent of a span is the innermost span open on the same thread
/// when it starts, so children nest inside their parent, and the self
/// time of a span is its duration minus the summed durations of its
/// direct children.

#include <cstdint>
#include <string>
#include <vector>

namespace sargus::perfbench::trace {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

void SetEnabled(bool on);
bool Enabled();

/// Interns a span name. Call once per call site and keep the id.
uint16_t Name(const char* name);

/// Records a span whose interval is already known (e.g. an open-loop
/// write from its due time to its ticket completion).
void Record(uint16_t name, int64_t start_ns, int64_t end_ns,
            uint32_t request);

/// Scoped span: starts on construction, ends on destruction.
class Span {
 public:
  explicit Span(uint16_t name, uint32_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;  // in this thread's buffer; -1 when not recorded
};

struct NameStats {
  std::string name;
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  double mean_us() const { return count ? total_s * 1e6 / count : 0; }
};

/// Per-name count, total and self time over every span recorded so far.
/// Call only when no thread is recording.
std::vector<NameStats> Summarize();

/// Stats of one name (zeros when it never ran).
NameStats Find(const std::vector<NameStats>& all, const char* name);

/// Total spans recorded, and spans dropped because a thread's buffer was
/// full.
uint64_t SpanCount();
uint64_t DroppedCount();

/// Writes the per-name summary and the first million spans as
/// tab-separated lines to `path`. Returns false on an I/O error.
bool Flush(const std::string& path);

}  // namespace sargus::perfbench::trace

#endif  // SARGUS_PERFBENCH_TRACE_H_
