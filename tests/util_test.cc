#include <gtest/gtest.h>

#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace conservation::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad epsilon");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad epsilon");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  const std::vector<std::string> parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, ParseDouble) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &value));
  EXPECT_DOUBLE_EQ(value, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &value));
  EXPECT_DOUBLE_EQ(value, -1000.0);
  EXPECT_FALSE(ParseDouble("12x", &value));
  EXPECT_FALSE(ParseDouble("", &value));
}

TEST(StringUtilTest, FormatNumber) {
  EXPECT_EQ(FormatNumber(3.0), "3");
  EXPECT_EQ(FormatNumber(3.14159, 3), "3.142");
  EXPECT_EQ(FormatNumber(2.5000, 4), "2.5");
  EXPECT_EQ(FormatNumber(-7.0), "-7");
}

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotone) {
  // The stopwatch reads steady_clock (a static_assert pins it); successive
  // reads must never go backwards — a wall-clock-based timer would under
  // NTP adjustment.
  Stopwatch stopwatch;
  double last_seconds = 0.0;
  int64_t last_nanos = 0;
  for (int k = 0; k < 1000; ++k) {
    const double seconds = stopwatch.ElapsedSeconds();
    const int64_t nanos = stopwatch.ElapsedNanos();
    EXPECT_GE(seconds, last_seconds);
    EXPECT_GE(nanos, last_nanos);
    last_seconds = seconds;
    last_nanos = nanos;
  }
  EXPECT_GE(last_seconds, 0.0);
  EXPECT_GE(last_nanos, 0);
}

TEST(StopwatchTest, RestartResetsElapsed) {
  Stopwatch stopwatch;
  // Burn a little time so the pre-restart reading is strictly positive.
  volatile double sink = 0.0;
  for (int k = 0; k < 100000; ++k) sink = sink + static_cast<double>(k);
  const double before = stopwatch.ElapsedSeconds();
  EXPECT_GT(before, 0.0);
  stopwatch.Restart();
  EXPECT_LT(stopwatch.ElapsedSeconds(), before);
}

TEST(RngTest, Deterministic) {
  Rng rng1(99);
  Rng rng2(99);
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(rng1.UniformInt(0, 1000000), rng2.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int k = 0; k < 1000; ++k) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const int64_t i = rng.UniformInt(-5, 5);
    EXPECT_GE(i, -5);
    EXPECT_LE(i, 5);
  }
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  double sum = 0.0;
  const int trials = 20000;
  for (int k = 0; k < trials; ++k) sum += rng.Poisson(4.0);
  EXPECT_NEAR(sum / trials, 4.0, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(7);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int k = 0; k < 100; ++k) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

}  // namespace
}  // namespace conservation::util
