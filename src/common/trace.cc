#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "common/fs.h"

namespace fastft {
namespace obs {
namespace {

// Leaked on purpose: pool workers may still record during static
// destruction.
Ring<SpanEvent>& SpanRing() {
  static Ring<SpanEvent>* ring = new Ring<SpanEvent>();
  return *ring;
}

// Session origin that span start times are rebased onto.
std::atomic<uint64_t> g_origin_ns{0};

void AppendJsonNumber(std::ostringstream& out, double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  out << buffer;
}

}  // namespace

int64_t TraceSnapshot::TotalEvents() const {
  int64_t total = 0;
  for (const ThreadTrace& t : threads) {
    total += static_cast<int64_t>(t.events.size());
  }
  return total;
}

int64_t TraceSnapshot::TotalDropped() const {
  int64_t total = 0;
  for (const ThreadTrace& t : threads) total += t.dropped;
  return total;
}

void StartTracing(const TraceOptions& options) {
  RegisterThisThread("main");
  g_origin_ns.store(internal::NowNs(), std::memory_order_relaxed);
  SpanRing().Start(options.ring_capacity);
}

void StopTracing() { SpanRing().Stop(); }

bool TracingActive() { return SpanRing().Active(); }

TraceSnapshot SnapshotTrace() {
  std::vector<RingSlice<SpanEvent>> slices = SpanRing().Snapshot();
  // Read after the slices (tids only grow), so every slice's thread is named.
  const std::vector<std::string> names = internal::RegisteredThreadNames();
  TraceSnapshot snapshot;
  for (size_t tid = 0; tid < names.size(); ++tid) {
    snapshot.threads.push_back({static_cast<int>(tid), names[tid], {}, 0});
  }
  for (RingSlice<SpanEvent>& slice : slices) {
    ThreadTrace& trace = snapshot.threads[slice.tid];
    trace.events = std::move(slice.items);
    trace.dropped = slice.dropped;
  }
  return snapshot;
}

std::vector<SpanStats> SummarizeSpans(const TraceSnapshot& snapshot) {
  std::unordered_map<std::string, SpanStats> by_name;
  for (const ThreadTrace& thread : snapshot.threads) {
    for (const SpanEvent& event : thread.events) {
      SpanStats& stats = by_name[event.name];
      if (stats.count == 0) stats.name = event.name;
      ++stats.count;
      stats.total_ns += event.duration_ns;
      stats.max_ns = std::max(stats.max_ns, event.duration_ns);
      ++stats.count_by_thread[thread.tid];
    }
  }
  std::vector<SpanStats> summary;
  summary.reserve(by_name.size());
  for (auto& [name, stats] : by_name) summary.push_back(std::move(stats));
  std::sort(summary.begin(), summary.end(),
            [](const SpanStats& a, const SpanStats& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.name < b.name;
            });
  return summary;
}

std::string ChromeTraceJson(const TraceSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n\"traceEvents\": [\n";
  bool first = true;
  for (const ThreadTrace& thread : snapshot.threads) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << thread.tid << ", \"args\": {\"name\": \"" << thread.thread_name
        << "\"}}";
    for (const SpanEvent& event : thread.events) {
      out << ",\n{\"name\": \"" << (event.name ? event.name : "?")
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << thread.tid
          << ", \"ts\": ";
      AppendJsonNumber(out, static_cast<double>(event.start_ns) / 1000.0);
      out << ", \"dur\": ";
      AppendJsonNumber(out, static_cast<double>(event.duration_ns) / 1000.0);
      out << "}";
    }
  }
  if (!first) out << ",\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0,"
      << " \"args\": {\"name\": \"fastft\"}}\n";
  out << "],\n\"displayTimeUnit\": \"ms\",\n";

  out << "\"droppedSpans\": {";
  bool first_drop = true;
  for (const ThreadTrace& thread : snapshot.threads) {
    if (!first_drop) out << ", ";
    first_drop = false;
    out << "\"" << thread.tid << "\": " << thread.dropped;
  }
  out << "},\n";

  out << "\"spanSummary\": [\n";
  const std::vector<SpanStats> summary = SummarizeSpans(snapshot);
  for (size_t i = 0; i < summary.size(); ++i) {
    const SpanStats& stats = summary[i];
    out << "{\"name\": \"" << stats.name << "\", \"count\": " << stats.count
        << ", \"total_ms\": ";
    AppendJsonNumber(out, static_cast<double>(stats.total_ns) / 1e6);
    out << ", \"mean_us\": ";
    AppendJsonNumber(out, stats.MeanNs() / 1000.0);
    out << ", \"max_us\": ";
    AppendJsonNumber(out, static_cast<double>(stats.max_ns) / 1000.0);
    out << ", \"by_thread\": {";
    bool first_tid = true;
    for (const auto& [tid, count] : stats.count_by_thread) {
      if (!first_tid) out << ", ";
      first_tid = false;
      out << "\"" << tid << "\": " << count;
    }
    out << "}}";
    if (i + 1 < summary.size()) out << ",";
    out << "\n";
  }
  out << "]\n}\n";
  return out.str();
}

Status WriteChromeTrace(const std::string& path) {
  // Atomic write: a crash mid-export must not leave a truncated JSON file.
  return common::AtomicWriteFile(path, ChromeTraceJson(SnapshotTrace()));
}

namespace internal {

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  Ring<SpanEvent>& ring = SpanRing();
  if (!ring.Active()) return;
  const uint64_t origin = g_origin_ns.load(std::memory_order_relaxed);
  // A span opened before StartTracing rebases to the session origin.
  ring.Append({name, start_ns > origin ? start_ns - origin : 0,
               end_ns > start_ns ? end_ns - start_ns : 0});
}

}  // namespace internal
}  // namespace obs
}  // namespace fastft
