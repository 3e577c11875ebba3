// Tests for Status/Result, Rng, stats, and timers.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/timer.h"

namespace fastft {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::OutOfRange("").code(),
      Status::NotFound("").code(),        Status::IOError("").code(),
      Status::Unimplemented("").code(),   Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultDeathTest, ValueAccessOnErrorChecks) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_DEATH(r.value(), "Result<> accessed without a value");
}

TEST(ResultDeathTest, ValueOrDieOnErrorChecks) {
  Result<int> r(Status::IOError("disk gone"));
  EXPECT_DEATH(std::move(r).ValueOrDie(), "disk gone");
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd input");
  return v / 2;
}

Status SumOfHalves(int a, int b, int* out) {
  int x = 0;
  FASTFT_ASSIGN_OR_RETURN(x, HalveEven(a));
  FASTFT_ASSIGN_OR_RETURN(int y, HalveEven(b));  // also declares
  *out = x + y;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnUnwrapsValues) {
  int out = -1;
  ASSERT_TRUE(SumOfHalves(4, 6, &out).ok());
  EXPECT_EQ(out, 5);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  int out = -1;
  Status s = SumOfHalves(4, 7, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, -1);  // second assignment never ran
}

TEST(ResultTest, AssignOrReturnMovesValue) {
  auto make = []() -> Result<std::string> { return std::string("abc"); };
  auto use = [&](std::string* out) -> Status {
    FASTFT_ASSIGN_OR_RETURN(*out, make());
    return Status::OK();
  };
  std::string out;
  ASSERT_TRUE(use(&out).ok());
  EXPECT_EQ(out, "abc");
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.UniformInt(1000) == b.UniformInt(1000));
  EXPECT_LT(same, 10);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.6);
}

TEST(RngTest, SampleDiscreteNeverReturnsTrailingZeroWeight) {
  // Regression: the old fallback returned size()-1 when floating-point
  // accumulation left r >= acc, which could pick a zero-weight index.
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0};
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(rng.SampleDiscrete(weights), 0);
}

TEST(RngTest, SampleDiscreteSkipsInteriorAndTrailingZeros) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 0.0, 5.0, 0.0};
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(rng.SampleDiscrete(weights), 2);
}

TEST(RngTest, SampleDiscreteAlwaysPicksPositiveWeight) {
  Rng rng(31);
  std::vector<double> weights = {0.3, 0.0, 1e-12, 0.0, 2.0, 0.0};
  for (int i = 0; i < 5000; ++i) {
    int idx = rng.SampleDiscrete(weights);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<int>(weights.size()));
    EXPECT_GT(weights[idx], 0.0) << "picked zero-weight index " << idx;
  }
}

TEST(RngTest, SampleDiscreteAllZeroFallsBackToUniform) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.SampleDiscrete(weights));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  std::vector<int> sample = rng.SampleWithoutReplacement(10, 6);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(RngTest, SampleWithoutReplacementClampsK) {
  Rng rng(21);
  EXPECT_EQ(rng.SampleWithoutReplacement(3, 10).size(), 3u);
}

TEST(SplitMixTest, DeriveSeedIsStable) {
  EXPECT_EQ(DeriveSeed(42, 1), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 1), DeriveSeed(42, 2));
  EXPECT_NE(DeriveSeed(42, 1), DeriveSeed(43, 1));
}

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(Variance(v), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(2.0));
}

TEST(StatsTest, EmptyInputsAreZero) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(Variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(empty, 0.5), 0.0);
  Summary s = Summarize(empty);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 10.0);
}

TEST(StatsTest, SummaryOrderedFields) {
  std::vector<double> v = {5, 1, 4, 2, 3, 9, 0};
  Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_LE(s.min, s.q25);
  EXPECT_LE(s.q25, s.median);
  EXPECT_LE(s.median, s.q75);
  EXPECT_LE(s.q75, s.max);
  EXPECT_EQ(s.ToVector().size(), static_cast<size_t>(Summary::kNumFields));
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  std::vector<double> a = {1, 1, 1};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(StatsTest, CosineSimilarity) {
  std::vector<double> a = {1, 0};
  std::vector<double> b = {0, 1};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  std::vector<double> zero = {0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(TimerTest, BucketsAccumulate) {
  TimeBuckets buckets;
  buckets.Add("a", 1.0);
  buckets.Add("a", 0.5);
  buckets.Add("b", 2.0);
  EXPECT_DOUBLE_EQ(buckets.Get("a"), 1.5);
  EXPECT_DOUBLE_EQ(buckets.Get("b"), 2.0);
  EXPECT_DOUBLE_EQ(buckets.Get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(buckets.Total(), 3.5);
  buckets.Clear();
  EXPECT_DOUBLE_EQ(buckets.Total(), 0.0);
}

TEST(TimerTest, WallTimerAdvances) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.Seconds(), 0.0);
}

// Regression: concurrent Add calls into the same bucket must lose no time
// (the pre-locking map would drop or corrupt updates under ThreadSanitizer
// and occasionally double-count via torn read-modify-writes).
TEST(TimerTest, ConcurrentAddsLoseNothing) {
  TimeBuckets buckets;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buckets] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        buckets.Add("shared", 0.001);
        buckets.Add("private", 0.002);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_NEAR(buckets.Get("shared"), kThreads * kAddsPerThread * 0.001, 1e-6);
  EXPECT_NEAR(buckets.Get("private"), kThreads * kAddsPerThread * 0.002, 1e-6);
  EXPECT_NEAR(buckets.Total(), kThreads * kAddsPerThread * 0.003, 1e-6);
  // buckets() returns a consistent copy, not a reference into live state.
  std::map<std::string, double> copy = buckets.buckets();
  buckets.Clear();
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets.Total(), 0.0);
}

// Consumes a log line left to right against its fixed layout.
class LineCursor {
 public:
  explicit LineCursor(std::string_view rest) : rest_(rest) {}

  bool Literal(std::string_view text) {
    if (rest_.substr(0, text.size()) != text) return false;
    rest_.remove_prefix(text.size());
    return true;
  }
  /// One or more decimal digits, or exactly `count` when count > 0.
  bool Digits(size_t count = 0) {
    size_t n = 0;
    while (n < rest_.size() && rest_[n] >= '0' && rest_[n] <= '9') ++n;
    if (n == 0 || (count > 0 && n != count)) return false;
    rest_.remove_prefix(n);
    return true;
  }

 private:
  std::string_view rest_;
};

// True when `line` contains "[WARN +<d>.<ddd>ms T<d> common_test.cc:<d>]
// format probe", where <d> is one or more digits and <ddd> exactly three.
bool HasFormatProbe(const std::string& line) {
  for (size_t start = line.find('['); start != std::string::npos;
       start = line.find('[', start + 1)) {
    LineCursor c(std::string_view(line).substr(start));
    if (c.Literal("[WARN +") && c.Digits() && c.Literal(".") && c.Digits(3) &&
        c.Literal("ms T") && c.Digits() && c.Literal(" common_test.cc:") &&
        c.Digits() && c.Literal("] format probe")) {
      return true;
    }
  }
  return false;
}

TEST(LoggingTest, FormatProbeMatcherIsStrict) {
  EXPECT_TRUE(
      HasFormatProbe("[WARN +12.345ms T0 common_test.cc:7] format probe"));
  EXPECT_TRUE(
      HasFormatProbe("x [WARN +0.000ms T12 common_test.cc:340] format probe!"));
  for (const char* bad : {
           "[WARN +12.34ms T0 common_test.cc:7] format probe",
           "[WARN +12.3456ms T0 common_test.cc:7] format probe",
           "[WARN +.345ms T0 common_test.cc:7] format probe",
           "[WARN +12.345ms T common_test.cc:7] format probe",
           "[WARN +12.345ms T0 common_test.cc:] format probe",
           "[INFO +12.345ms T0 common_test.cc:7] format probe",
           "[WARN +12.345ms T0 common_testXcc:7] format probe",
           "[WARN +12.345ms T0 common_test.cc:7] format prob",
       }) {
    EXPECT_FALSE(HasFormatProbe(bad)) << bad;
  }
}

TEST(LoggingTest, LineFormat) {
  std::vector<std::string> lines;
  internal::SetLogSinkForTest(&lines);
  FASTFT_LOG(Warning) << "format probe";
  internal::SetLogSinkForTest(nullptr);

  ASSERT_EQ(lines.size(), 1u);
  // [WARN +12.345ms T0 common_test.cc:NN] format probe
  EXPECT_TRUE(HasFormatProbe(lines[0])) << "line: " << lines[0];
}

TEST(LoggingTest, MonotonicTimestampsAdvance) {
  std::vector<std::string> lines;
  internal::SetLogSinkForTest(&lines);
  FASTFT_LOG(Warning) << "first";
  FASTFT_LOG(Warning) << "second";
  internal::SetLogSinkForTest(nullptr);

  ASSERT_EQ(lines.size(), 2u);
  auto parse_ms = [](const std::string& line) {
    size_t plus = line.find('+');
    return std::stod(line.substr(plus + 1));
  };
  EXPECT_GE(parse_ms(lines[1]), parse_ms(lines[0]));
}

TEST(LoggingTest, BelowLevelNotEmitted) {
  std::vector<std::string> lines;
  internal::SetLogSinkForTest(&lines);
  FASTFT_LOG(Debug) << "too quiet";  // default level is kWarning
  internal::SetLogSinkForTest(nullptr);
  EXPECT_TRUE(lines.empty());
}

}  // namespace
}  // namespace fastft
