// Structured span tracing — the fastft::obs recording layer.
//
// The paper's runtime claims (Table II's Optimization/Estimation/Evaluation
// breakdown, Fig. 9/10 scaling) are about *where time goes*; once evaluation
// and estimation fan out over the shared thread pool, flat per-bucket sums
// cannot show pool queue wait, per-fold skew, or cache-hit timing. This
// tracer records named spans into per-thread ring buffers and exports them
// as Chrome trace-event JSON (loadable in chrome://tracing or Perfetto)
// plus an aggregated per-span summary.
//
// Always compiled, cheap when disabled: FASTFT_TRACE_SPAN costs one relaxed
// atomic load when tracing is off, and engine outputs are bit-identical with
// tracing on or off, at any thread count. Spans land in the per-thread
// drop-oldest rings of common/ring.h, under the tids FASTFT_LOG uses too.
//
// Span naming scheme mirrors fault sites: "<subsystem>/<operation>", e.g.
// "engine/step", "evaluator/fold", "pool/task", "encode_cache/lookup".

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ring.h"
#include "common/status.h"
#include "common/timer.h"

namespace fastft {
namespace obs {

struct TraceOptions {
  /// Max retained spans per thread; older spans are dropped (and counted)
  /// once a ring wraps.
  size_t ring_capacity = 65536;
};

/// Clears every registered ring and starts recording. Calling while already
/// active restarts the session (rings are cleared again). Registers the
/// calling thread as "main" if it has no name yet.
void StartTracing(const TraceOptions& options = {});

/// Stops recording; ring contents stay frozen for SnapshotTrace /
/// WriteChromeTrace until the next StartTracing.
void StopTracing();

/// True between StartTracing and StopTracing. One relaxed atomic load.
bool TracingActive();

/// One recorded span. `name` points at the call site's string literal;
/// times are nanoseconds since the StartTracing origin.
struct SpanEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

/// All spans retained by one thread's ring, oldest first.
struct ThreadTrace {
  int tid = 0;
  std::string thread_name;
  std::vector<SpanEvent> events;
  int64_t dropped = 0;  // spans overwritten after the ring wrapped
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;  // ascending tid

  int64_t TotalEvents() const;
  int64_t TotalDropped() const;
};

/// Copies every ring's current contents. Safe to call at any time; intended
/// after StopTracing (a snapshot taken mid-recording is consistent per ring
/// but threads may keep appending).
TraceSnapshot SnapshotTrace();

/// Aggregated statistics of one span name across the snapshot.
struct SpanStats {
  std::string name;
  int64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
  /// Spans recorded per thread (tid -> count): pool-worker attribution.
  std::map<int, int64_t> count_by_thread;

  double MeanNs() const {
    return count > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0.0;
  }
};

/// Per-span summary (count/total/mean/max, by thread), sorted by descending
/// total time.
std::vector<SpanStats> SummarizeSpans(const TraceSnapshot& snapshot);

/// Serializes a snapshot as Chrome trace-event JSON: complete ("ph":"X")
/// events plus thread_name/process_name metadata, with the span summary and
/// per-thread dropped counters embedded under non-standard top-level keys
/// (Perfetto ignores them).
std::string ChromeTraceJson(const TraceSnapshot& snapshot);

/// SnapshotTrace + ChromeTraceJson written to `path`.
Status WriteChromeTrace(const std::string& path);

namespace internal {

/// Appends one span to the calling thread's ring (no-op unless tracing is
/// active).
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns);

}  // namespace internal

/// RAII span: records [construction, destruction) of the enclosing scope
/// under `name`, which must outlive the trace session (string literals do).
/// With an `elapsed_ns` sink the span reads the clock even while tracing is
/// off and adds its duration there; while tracing, the same two clock reads
/// become the span, so the sink is exactly the sum of the spans it records.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, uint64_t* elapsed_ns = nullptr)
      : name_(TracingActive() ? name : nullptr), elapsed_ns_(elapsed_ns) {
    if (name_ != nullptr || elapsed_ns_ != nullptr) {
      start_ns_ = internal::NowNs();
    }
  }
  ~TraceSpan() {
    if (name_ == nullptr && elapsed_ns_ == nullptr) return;
    const uint64_t end_ns = internal::NowNs();
    if (elapsed_ns_ != nullptr) *elapsed_ns_ += end_ns - start_ns_;
    if (name_ != nullptr) internal::RecordSpan(name_, start_ns_, end_ns);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;  // nullptr = tracing was off at entry
  uint64_t* elapsed_ns_;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace fastft

#define FASTFT_TRACE_CONCAT_INNER(a, b) a##b
#define FASTFT_TRACE_CONCAT(a, b) FASTFT_TRACE_CONCAT_INNER(a, b)

/// Times the enclosing scope as one span, e.g.
///   FASTFT_TRACE_SPAN("engine/step");
#define FASTFT_TRACE_SPAN(name)                                       \
  ::fastft::obs::TraceSpan FASTFT_TRACE_CONCAT(fastft_trace_span_,    \
                                               __COUNTER__)(name)

