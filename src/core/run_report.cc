#include "core/run_report.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/fs.h"

namespace fastft {
namespace {

// JSON has no NaN/Infinity literals; clamp defensively.
void AppendNumber(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  out << buffer;
}

// Latency histograms and pool.* counters follow the schedule and the thread
// count, so they render under "runtime", away from the counted work.
bool IsRuntimeMetric(const obs::MetricValue& value) {
  return value.kind == obs::MetricKind::kHistogram ||
         value.name.rfind("pool.", 0) == 0;
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RunReportJson(const Dataset& original,
                          const EngineResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"dataset\": \"" << JsonEscape(original.name) << "\",\n";
  out << "  \"task\": \"" << TaskTypeCode(original.task) << "\",\n";
  out << "  \"rows\": " << original.NumRows() << ",\n";
  out << "  \"original_features\": " << original.NumFeatures() << ",\n";
  out << "  \"transformed_features\": " << result.best_dataset.NumFeatures()
      << ",\n";
  out << "  \"base_score\": ";
  AppendNumber(out, result.base_score);
  out << ",\n  \"best_score\": ";
  AppendNumber(out, result.best_score);
  out << ",\n  \"downstream_evaluations\": " << result.downstream_evaluations
      << ",\n";
  out << "  \"predictor_estimations\": " << result.predictor_estimations
      << ",\n";
  out << "  \"total_steps\": " << result.total_steps << ",\n";

  const nn::PrefixCacheStats& cache = result.estimation_cache;
  out << "  \"estimation_cache\": {\"lookups\": " << cache.lookups
      << ", \"hits\": " << cache.hits << ", \"hit_rate\": ";
  AppendNumber(out, cache.HitRate());
  out << ", \"tokens_reused\": " << cache.tokens_reused
      << ", \"tokens_encoded\": " << cache.tokens_encoded
      << ", \"token_reuse_rate\": ";
  AppendNumber(out, cache.TokenReuseRate());
  out << ", \"evictions\": " << cache.evictions
      << ", \"invalidations\": " << cache.invalidations << "},\n";

  out << "  \"health\": " << result.health.ToJson() << ",\n";

  obs::MetricsSnapshot counted;
  obs::MetricsSnapshot runtime;
  for (const obs::MetricValue& value : result.metrics.values) {
    (IsRuntimeMetric(value) ? runtime : counted).values.push_back(value);
  }
  // The run's own counted work; a run that evaluated nothing has none.
  if (!counted.empty()) {
    out << "  \"metrics\": " << counted.ToJson() << ",\n";
  }

  // Everything that depends on the schedule or the thread count, on one
  // line. Times are seconds, keys in name order; a bucket no phase charged
  // is left out.
  out << "  \"runtime\": {";
  if (!runtime.empty()) out << "\"metrics\": " << runtime.ToJson() << ", ";
  const PhaseTimes& times = result.times;
  const std::pair<const char*, uint64_t> buckets[] = {
      {"checkpoint", times.checkpoint_ns},
      {"estimation", times.estimation_ns},
      {"evaluation", times.evaluation_ns},
      {"optimization", times.optimization_ns}};
  out << "\"times\": {";
  bool first = true;
  for (const auto& [bucket, ns] : buckets) {
    if (ns == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << "\"" << bucket << "\": ";
    AppendNumber(out, static_cast<double>(ns) * 1e-9);
  }
  out << "}},\n";

  out << "  \"generated_features\": [";
  first = true;
  for (int c = original.NumFeatures(); c < result.best_dataset.NumFeatures();
       ++c) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(result.best_dataset.features.Name(c)) << "\"";
  }
  out << "],\n";

  out << "  \"episode_best\": [";
  first = true;
  for (double v : result.episode_best) {
    if (!first) out << ", ";
    first = false;
    AppendNumber(out, v);
  }
  out << "],\n";

  out << "  \"trace\": [\n";
  for (size_t i = 0; i < result.trace.size(); ++i) {
    const StepTrace& t = result.trace[i];
    out << "    {\"episode\": " << t.episode << ", \"step\": " << t.step
        << ", \"reward\": ";
    AppendNumber(out, t.reward);
    out << ", \"performance\": ";
    AppendNumber(out, t.performance);
    out << ", \"evaluated\": " << (t.downstream_evaluated ? "true" : "false")
        << ", \"generated\": " << (t.generated ? "true" : "false");
    if (!t.top_new_feature.empty()) {
      out << ", \"top_feature\": \"" << JsonEscape(t.top_new_feature) << "\"";
    }
    out << "}";
    if (i + 1 < result.trace.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

Status WriteRunReport(const Dataset& original, const EngineResult& result,
                      const std::string& path) {
  if (FASTFT_FAULT_POINT("report/write")) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  // Atomic (temp file + fsync + rename): a crash mid-export never leaves a
  // truncated report behind a valid-looking path.
  return common::AtomicWriteFile(path, RunReportJson(original, result));
}

}  // namespace fastft
