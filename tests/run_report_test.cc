// Tests for the JSON run-report writer.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "core/run_report.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

EngineResult QuickRun(const Dataset& dataset, int threads = 1) {
  EngineConfig cfg;
  cfg.episodes = 3;
  cfg.steps_per_episode = 3;
  cfg.cold_start_episodes = 1;
  cfg.evaluator.folds = 2;
  cfg.seed = 77;
  cfg.num_threads = threads;
  return FastFtEngine(cfg).Run(dataset).ValueOrDie();
}

// The line of `json` that starts with `key`, or "" when there is none.
std::string ReportLine(const std::string& json, const std::string& key) {
  const size_t start = json.find("\n  \"" + key + "\": ");
  if (start == std::string::npos) return "";
  return json.substr(start + 1, json.find('\n', start + 1) - start - 1);
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 80;
  spec.features = 5;
  spec.seed = 31;
  Dataset ds = MakeClassification(spec);
  ds.name = "report \"test\"";  // exercises escaping
  return ds;
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonEscapeTest, EdgeCases) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("\t\r\n"), "\\t\\r\\n");
  EXPECT_EQ(JsonEscape("\"\"\""), "\\\"\\\"\\\"");
  // Multi-byte UTF-8 passes through unmangled: every byte of a multi-byte
  // sequence is >= 0x80, so none hits the control-character escape.
  const std::string utf8 = "caf\xC3\xA9 \xE6\xBC\xA2";  // "café 漢"
  EXPECT_EQ(JsonEscape(utf8), utf8);
  // Mixed: controls escaped, UTF-8 intact, in one pass.
  EXPECT_EQ(JsonEscape(std::string("\x1F") + "\xC3\xA9"),
            std::string("\\u001f") + "\xC3\xA9");
}

TEST(RunReportTest, ContainsCoreFields) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  std::string json = RunReportJson(ds, r);
  EXPECT_NE(json.find("\"dataset\": \"report \\\"test\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"task\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"base_score\":"), std::string::npos);
  EXPECT_NE(json.find("\"best_score\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("\"generated_features\":"), std::string::npos);
  EXPECT_NE(json.find("\"runtime\":"), std::string::npos);
  EXPECT_NE(json.find("\"times\":"), std::string::npos);
}

TEST(RunReportTest, BalancedBracesAndQuotes) {
  // Structural sanity without a JSON parser: balanced {} and [] and an even
  // number of unescaped quotes.
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  std::string json = RunReportJson(ds, r);
  int braces = 0, brackets = 0, quotes = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
    }
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0);
  EXPECT_FALSE(in_string);
}

TEST(RunReportTest, TraceLengthMatchesSteps) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  std::string json = RunReportJson(ds, r);
  size_t count = 0, pos = 0;
  while ((pos = json.find("\"episode\":", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, r.trace.size());
}

TEST(RunReportTest, NoNanOrInfLiterals) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  r.base_score = std::numeric_limits<double>::quiet_NaN();
  std::string json = RunReportJson(ds, r);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"base_score\": null"), std::string::npos);
}

TEST(RunReportTest, ContainsHealthSection) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  std::string json = RunReportJson(ds, r);
  EXPECT_NE(json.find("\"health\":"), std::string::npos);
  EXPECT_NE(json.find("\"faults_observed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"performance_predictor\""), std::string::npos);
  EXPECT_NE(json.find("\"novelty_estimator\""), std::string::npos);
  // A clean run reports both components healthy.
  EXPECT_EQ(json.find("quarantined"), std::string::npos);
}

TEST(RunReportTest, ContainsMetricsSection) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds, /*threads=*/2);  // the folds use the pool
  ASSERT_FALSE(r.metrics.empty());
  std::string json = RunReportJson(ds, r);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":"), std::string::npos);
  // The run's evaluator fitted every downstream evaluation of the run that
  // its memo did not answer.
  const int64_t evaluations = r.metrics.CounterValue("evaluator.evaluations");
  EXPECT_EQ(evaluations + r.metrics.CounterValue("evaluator.memo_hits"),
            r.downstream_evaluations);
  EXPECT_NE(json.find("\"evaluator.evaluations\": " +
                      std::to_string(evaluations)),
            std::string::npos);

  // Counted work renders in the body's "metrics"; every histogram and
  // every pool.* counter renders under "runtime" instead.
  const std::string body = ReportLine(json, "metrics");
  const std::string runtime = ReportLine(json, "runtime");
  ASSERT_FALSE(body.empty());
  ASSERT_FALSE(runtime.empty());
  int runtime_metrics = 0;
  for (const obs::MetricValue& value : r.metrics.values) {
    const std::string key = "\"" + value.name + "\": ";
    const bool schedule_dependent = value.kind == obs::MetricKind::kHistogram ||
                                    value.name.rfind("pool.", 0) == 0;
    runtime_metrics += schedule_dependent;
    EXPECT_EQ(runtime.find(key) != std::string::npos, schedule_dependent)
        << value.name;
    EXPECT_EQ(body.find(key) != std::string::npos, !schedule_dependent)
        << value.name;
  }
  // A single-core host runs the shared pool with no workers, so nothing is
  // queued and no pool metric exists.
  if (common::ResolveThreadCount(0) > 1) {
    EXPECT_NE(r.metrics.Find("pool.tasks"), nullptr);
    EXPECT_NE(r.metrics.Find("pool.task_run_us"), nullptr);
    EXPECT_GT(runtime_metrics, 0);
  }
}

TEST(RunReportTest, ConcurrentRunsReportTheirOwnCounters) {
  // Two runs of different seeds, first alone, then overlapping on two
  // threads: the body's counted work comes from each run's own evaluator,
  // so each overlapped report equals its solo report byte for byte, except
  // the schedule-dependent "runtime" line.
  SyntheticSpec spec;
  spec.samples = 60;
  spec.features = 5;
  spec.seed = 5;
  const Dataset dataset = MakeClassification(spec);
  const uint64_t seeds[2] = {17, 29};
  auto report = [&](int k) {
    EngineConfig config;
    config.episodes = 6;
    config.steps_per_episode = 4;
    config.cold_start_episodes = 2;
    config.seed = seeds[k];
    Result<EngineResult> result = FastFtEngine(config).Run(dataset);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return std::string();
    std::string json = RunReportJson(dataset, result.value());
    const std::string runtime = ReportLine(json, "runtime");
    EXPECT_FALSE(runtime.empty());
    json.erase(json.find(runtime), runtime.size());
    return json;
  };

  std::string solo[2];
  for (int k = 0; k < 2; ++k) solo[k] = report(k);
  ASSERT_NE(solo[0], solo[1]);
  ASSERT_FALSE(ReportLine(solo[0], "metrics").empty());

  std::promise<void> go;
  std::shared_future<void> start = go.get_future().share();
  std::string overlap[2];
  std::vector<std::thread> threads;
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&, k] {
      start.wait();
      overlap[k] = report(k);
    });
  }
  go.set_value();
  for (std::thread& t : threads) t.join();

  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(ReportLine(overlap[k], "metrics"), ReportLine(solo[k], "metrics"))
        << "run " << k;
    EXPECT_TRUE(overlap[k] == solo[k]) << "run " << k << " report differs";
  }
}

// Minimal recursive-descent JSON validator: enough grammar to prove the
// report parses (objects, arrays, strings with escapes, numbers, literals).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      default:
        return Literal() || Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) return false;
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal() {
    for (const char* lit : {"true", "false", "null"}) {
      size_t n = std::string(lit).size();
      if (text_.compare(pos_, n, lit) == 0) {
        pos_ += n;
        return true;
      }
    }
    return false;
  }
  bool Expect(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(RunReportTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator(R"({"a": [1, -2.5e3, "x\n", true, null]})")
                  .Valid());
  EXPECT_FALSE(JsonValidator(R"({"a": })").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1)").Valid());
  EXPECT_FALSE(JsonValidator("{\"a\": \"\x01\"}").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1} trailing)").Valid());
}

TEST(RunReportTest, FullReportParses) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  std::string json = RunReportJson(ds, r);
  EXPECT_TRUE(JsonValidator(json).Valid());
}

TEST(RunReportTest, FileWrite) {
  std::string path = testing::TempDir() + "/fastft_report.json";
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  ASSERT_TRUE(WriteRunReport(ds, r, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "{");
  std::remove(path.c_str());
}

TEST(RunReportTest, WriteToBadPathFails) {
  Dataset ds = SmallDataset();
  EngineResult r = QuickRun(ds);
  EXPECT_EQ(WriteRunReport(ds, r, "/no/such/dir/report.json").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace fastft
