// fastft_inspect — offline analyzer for flight-recorder streams.
//
//   fastft_inspect --record run.ffr [--trace trace.json] [--out diag.json]
//
// Decodes a stream written by --record-out (common/recorder.h) and emits one
// JSON document of exploration diagnostics:
//   * stream        envelope summary + the format's per-thread dropped
//                   table ("droppedEvents"); the writer buffers whole
//                   episodes and drops nothing, so it is empty
//   * episodes      per-episode curves: novelty decay (the Eq. 6 ε_i weight
//                   and the centered bonus actually paid), action entropy of
//                   each cascading agent, mean chosen score and
//                   chosen-vs-runner-up margin (Q-value drift), downstream
//                   trigger counts, epsilon annealing
//   * replay_priorities  distribution of the |TD-error| priorities at
//                   insertion and after the replayed optimize
//   * events        every fault and health-ladder transition, in order
//   * phase_times   with --trace: the Chrome-trace spanSummary joined in,
//                   so decision counts and wall-clock attribution sit in
//                   one document
//
// Exit codes: 0 ok, 1 decode/IO failure, 2 usage. All input errors surface
// as a descriptive message on stderr, never a crash.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/recorder.h"
#include "common/stats.h"
#include "common/status.h"

namespace fastft {
namespace {

using obs::DecodedRecordStream;
using obs::RecordEvent;
using obs::RecordEventKind;

// JSON has no NaN/Infinity; non-finite doubles (e.g. the runner-up score of
// a 1-candidate selection) serialize as null.
void AppendDouble(std::ostringstream* out, double v) {
  if (!std::isfinite(v)) {
    *out << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(12);
  tmp << v;
  *out << tmp.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Shannon entropy (bits) of an action histogram.
double Entropy(const std::map<int, int>& histogram) {
  int total = 0;
  for (const auto& [action, count] : histogram) total += count;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  double h = 0.0;
  for (const auto& [action, count] : histogram) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / total;
    h -= p * std::log2(p);
  }
  return h;
}

struct AgentEpisodeStats {
  std::map<int, int> actions;
  std::vector<double> chosen;
  std::vector<double> margins;  // chosen − runner-up, when both finite
};

void Accumulate(AgentEpisodeStats* stats, const obs::AgentDecision& d) {
  if (d.action < 0) return;
  ++stats->actions[d.action];
  stats->chosen.push_back(d.chosen_score);
  if (std::isfinite(d.runner_up_score)) {
    stats->margins.push_back(d.chosen_score - d.runner_up_score);
  }
}

struct EpisodeStats {
  int decisions = 0;
  int downstream = 0;
  int generated = 0;
  double epsilon_first = std::numeric_limits<double>::quiet_NaN();
  double epsilon_last = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> novelty, novelty_weight, reward, reward_novelty;
  AgentEpisodeStats head, op, tail;
  // From the kEpisode boundary mark (absent in a drop-truncated episode).
  bool has_boundary = false;
  double best_score = 0.0;
  int replay_size = 0;
};

void AppendAgentJson(std::ostringstream* out, const char* name,
                     const AgentEpisodeStats& stats, bool last) {
  *out << "\"" << name << "\": {\"entropy\": ";
  AppendDouble(out, Entropy(stats.actions));
  *out << ", \"distinct_actions\": " << stats.actions.size()
       << ", \"chosen_score_mean\": ";
  AppendDouble(out, Mean(stats.chosen));
  *out << ", \"margin_mean\": ";
  AppendDouble(out, Mean(stats.margins));
  *out << "}";
  if (!last) *out << ", ";
}

void AppendPriorityDistribution(std::ostringstream* out, const char* key,
                                std::vector<double> values) {
  *out << "\"" << key << "\": {\"count\": " << values.size();
  if (!values.empty()) {
    *out << ", \"mean\": ";
    AppendDouble(out, Mean(values));
    const double lo = *std::min_element(values.begin(), values.end());
    const double hi = *std::max_element(values.begin(), values.end());
    *out << ", \"min\": ";
    AppendDouble(out, lo);
    *out << ", \"p25\": ";
    AppendDouble(out, Quantile(values, 0.25));
    *out << ", \"median\": ";
    AppendDouble(out, Quantile(values, 0.5));
    *out << ", \"p75\": ";
    AppendDouble(out, Quantile(values, 0.75));
    *out << ", \"max\": ";
    AppendDouble(out, hi);
  }
  *out << "}";
}

/// Pulls {"name", "count", "total_ms"} triples out of the spanSummary
/// section of our own Chrome-trace exporter (common/trace.cc writes one
/// entry per line, so a line scan is exact — no JSON parser needed).
struct PhaseTime {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
};

std::vector<PhaseTime> ParseSpanSummary(const std::string& trace_json) {
  std::vector<PhaseTime> phases;
  const size_t section = trace_json.find("\"spanSummary\"");
  if (section == std::string::npos) return phases;
  std::istringstream lines(trace_json.substr(section));
  std::string line;
  while (std::getline(lines, line)) {
    const size_t name_pos = line.find("{\"name\": \"");
    if (name_pos == std::string::npos) continue;
    PhaseTime phase;
    const size_t name_start = name_pos + 10;
    const size_t name_end = line.find('"', name_start);
    if (name_end == std::string::npos) continue;
    phase.name = line.substr(name_start, name_end - name_start);
    const size_t count_pos = line.find("\"count\": ", name_end);
    if (count_pos != std::string::npos) {
      phase.count = std::strtoll(line.c_str() + count_pos + 9, nullptr, 10);
    }
    const size_t ms_pos = line.find("\"total_ms\": ", name_end);
    if (ms_pos != std::string::npos) {
      phase.total_ms = std::strtod(line.c_str() + ms_pos + 12, nullptr);
    }
    phases.push_back(std::move(phase));
  }
  return phases;
}

std::string BuildDiagnostics(const std::string& record_path,
                             const DecodedRecordStream& stream,
                             const std::string& trace_json) {
  std::map<int32_t, EpisodeStats> episodes;
  std::vector<double> priorities_added, priorities_updated;
  std::vector<const RecordEvent*> guard_events;
  int decisions = 0, faults = 0, health = 0, marks = 0;

  for (const RecordEvent& e : stream.events) {
    EpisodeStats& ep = episodes[e.episode];
    switch (e.kind) {
      case RecordEventKind::kDecision:
        ++decisions;
        ++ep.decisions;
        if (e.downstream_evaluated) ++ep.downstream;
        if (e.generated) ++ep.generated;
        if (std::isnan(ep.epsilon_first)) ep.epsilon_first = e.epsilon;
        ep.epsilon_last = e.epsilon;
        ep.novelty.push_back(e.novelty);
        ep.novelty_weight.push_back(e.novelty_weight);
        ep.reward.push_back(e.reward);
        ep.reward_novelty.push_back(e.reward_novelty);
        Accumulate(&ep.head, e.head);
        Accumulate(&ep.op, e.op);
        Accumulate(&ep.tail, e.tail);
        priorities_added.push_back(e.priority_added);
        priorities_updated.push_back(e.priority_updated);
        break;
      case RecordEventKind::kFault:
        ++faults;
        guard_events.push_back(&e);
        break;
      case RecordEventKind::kHealth:
        ++health;
        guard_events.push_back(&e);
        break;
      case RecordEventKind::kEpisode:
        ++marks;
        ep.has_boundary = true;
        ep.best_score = e.best_score;
        ep.replay_size = e.replay_size;
        break;
    }
  }

  std::ostringstream out;
  out << "{\n";
  out << "\"record\": \"" << JsonEscape(record_path) << "\",\n";

  out << "\"stream\": {\"version\": " << stream.version
      << ", \"blocks\": " << stream.episodes.size()
      << ", \"events\": " << stream.events.size()
      << ", \"decisions\": " << decisions << ", \"faults\": " << faults
      << ", \"health\": " << health << ", \"episode_marks\": " << marks
      << ", \"droppedEvents\": {";
  bool first = true;
  // Keys are the trace/log thread ids (common/ring.h's one registry).
  for (const auto& [tid, dropped] : stream.dropped_by_tid) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << tid << "\": " << dropped;
  }
  out << "}, \"total_dropped\": " << stream.TotalDropped() << "},\n";

  // Per-episode curves: index order == episode order (std::map).
  out << "\"episodes\": [\n";
  size_t emitted = 0;
  for (const auto& [episode, ep] : episodes) {
    out << "{\"episode\": " << episode << ", \"decisions\": " << ep.decisions
        << ", \"downstream_evaluations\": " << ep.downstream
        << ", \"generated_steps\": " << ep.generated << ", ";
    out << "\"epsilon_first\": ";
    AppendDouble(&out, ep.epsilon_first);
    out << ", \"epsilon_last\": ";
    AppendDouble(&out, ep.epsilon_last);
    out << ", \"novelty_mean\": ";
    AppendDouble(&out, Mean(ep.novelty));
    out << ", \"novelty_weight_mean\": ";
    AppendDouble(&out, Mean(ep.novelty_weight));
    out << ", \"reward_mean\": ";
    AppendDouble(&out, Mean(ep.reward));
    out << ", \"reward_novelty_mean\": ";
    AppendDouble(&out, Mean(ep.reward_novelty));
    out << ", \"agents\": {";
    AppendAgentJson(&out, "head", ep.head, false);
    AppendAgentJson(&out, "op", ep.op, false);
    AppendAgentJson(&out, "tail", ep.tail, true);
    out << "}";
    if (ep.has_boundary) {
      out << ", \"best_score\": ";
      AppendDouble(&out, ep.best_score);
      out << ", \"replay_size\": " << ep.replay_size;
    }
    out << "}";
    if (++emitted < episodes.size()) out << ",";
    out << "\n";
  }
  out << "],\n";

  out << "\"replay_priorities\": {";
  AppendPriorityDistribution(&out, "added", priorities_added);
  out << ", ";
  AppendPriorityDistribution(&out, "updated", priorities_updated);
  out << "},\n";

  out << "\"events\": [\n";
  for (size_t i = 0; i < guard_events.size(); ++i) {
    const RecordEvent& e = *guard_events[i];
    out << "{\"kind\": \"" << obs::RecordEventKindName(e.kind)
        << "\", \"episode\": " << e.episode << ", \"step\": " << e.step
        << ", \"global_step\": " << e.global_step << ", \"site\": \""
        << JsonEscape(e.site) << "\", \"detail\": \"" << JsonEscape(e.detail)
        << "\"}";
    if (i + 1 < guard_events.size()) out << ",";
    out << "\n";
  }
  out << "]";

  if (!trace_json.empty()) {
    const std::vector<PhaseTime> phases = ParseSpanSummary(trace_json);
    out << ",\n\"phase_times\": [\n";
    for (size_t i = 0; i < phases.size(); ++i) {
      out << "{\"phase\": \"" << JsonEscape(phases[i].name)
          << "\", \"count\": " << phases[i].count << ", \"total_ms\": ";
      AppendDouble(&out, phases[i].total_ms);
      // The join: wall clock per recorded decision, when the span maps to
      // the step loop (engine/step counts once per decision event).
      if (phases[i].name == "engine/step" && decisions > 0) {
        out << ", \"ms_per_decision\": ";
        AppendDouble(&out, phases[i].total_ms / decisions);
      }
      out << "}";
      if (i + 1 < phases.size()) out << ",";
      out << "\n";
    }
    out << "]";
  }
  out << "\n}\n";
  return out.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: fastft_inspect --record run.ffr [--trace trace.json] "
               "[--out diagnostics.json]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string record_path, trace_path, out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--record") {
      record_path = argv[i + 1];
    } else if (key == "--trace") {
      trace_path = argv[i + 1];
    } else if (key == "--out") {
      out_path = argv[i + 1];
    } else {
      return Usage();
    }
  }
  if (record_path.empty()) return Usage();

  Result<DecodedRecordStream> decoded = obs::ReadRecordStream(record_path);
  if (!decoded.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 decoded.status().ToString().c_str());
    return 1;
  }

  std::string trace_json;
  if (!trace_path.empty()) {
    Status read = common::ReadFileToString(trace_path, &trace_json);
    if (!read.ok()) {
      std::fprintf(stderr, "error: cannot read trace '%s': %s\n",
                   trace_path.c_str(), read.ToString().c_str());
      return 1;
    }
  }

  const std::string diagnostics =
      BuildDiagnostics(record_path, decoded.value(), trace_json);
  if (out_path.empty()) {
    std::fputs(diagnostics.c_str(), stdout);
    return 0;
  }
  Status written = common::AtomicWriteFile(out_path, diagnostics);
  if (!written.ok()) {
    std::fprintf(stderr, "error: cannot write '%s': %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote diagnostics to %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fastft

int main(int argc, char** argv) { return fastft::Main(argc, argv); }
