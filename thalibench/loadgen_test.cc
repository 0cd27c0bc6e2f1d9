#include "loadgen.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace thali {
namespace thalibench {
namespace {

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(7, 100.0, 10.0);
  const std::vector<double> b = PoissonSchedule(7, 100.0, 10.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(8, 100.0, 10.0));
}

TEST(PoissonScheduleTest, FixedCountSortedInsideWindow) {
  const std::vector<double> t = PoissonSchedule(3, 100.0, 12.5);
  ASSERT_EQ(t.size(), 1250u);
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], 0.0);
    EXPECT_LT(t[i], 12.5);
    if (i > 0) {
      EXPECT_LE(t[i - 1], t[i]);
    }
  }
}

TEST(PoissonScheduleTest, GapsLookExponential) {
  // Mean gap 1/rate, and the share of gaps above the mean near e^-1.
  const std::vector<double> t = PoissonSchedule(11, 200.0, 50.0);
  int above = 0;
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i] - t[i - 1] > 1.0 / 200.0) ++above;
  }
  const double share = static_cast<double>(above) / (t.size() - 1);
  EXPECT_NEAR(share, 0.3679, 0.02);
}

TEST(TimingRuleTest, TailPercentileLeavesTenBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentileFor(1000), 99.0);
  EXPECT_DOUBLE_EQ(TailPercentileFor(100), 90.0);
  EXPECT_DOUBLE_EQ(TailPercentileFor(20), 50.0);
  EXPECT_EQ(TailPercentileFor(19), 0.0);
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(2000, 99.5));
}

TEST(TimingRuleTest, SummaryUsesTheRule) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const TimingSummary s = SummarizeTiming(v);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.tail_pct, 90.0);
  // Linear interpolation at rank 0.9 * 99 = 89.1 -> 90.1; ten samples
  // (91..100) lie beyond it.
  EXPECT_NEAR(s.tail, 90.1, 1e-9);
  int beyond = 0;
  for (double x : v) beyond += x > s.tail ? 1 : 0;
  EXPECT_EQ(beyond, 10);

  const TimingSummary few = SummarizeTiming({1.0, 2.0, 3.0});
  EXPECT_EQ(few.tail_pct, 0.0);
  EXPECT_DOUBLE_EQ(few.p50, 2.0);
}

TEST(SliceTest, SamplesLandInTheirSlice) {
  const std::vector<double> at = {0.0, 0.9, 1.0, 2.5, 3.0, -1.0, 2.99};
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7};
  const auto s = SliceSamples(at, v, 1.0, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], (std::vector<double>{1, 2}));
  EXPECT_EQ(s[1], (std::vector<double>{3}));
  EXPECT_EQ(s[2], (std::vector<double>{4, 7}));  // 3.0 and -1.0 dropped
}

TEST(SliceTest, MedianIgnoresUnsupportedSlices) {
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(MedianOverSlices({5.0, nan, 1.0, 100.0}), 5.0);
  EXPECT_DOUBLE_EQ(MedianOverSlices({2.0, 4.0}), 3.0);
  EXPECT_TRUE(std::isnan(MedianOverSlices({nan})));
  // One disturbed slice does not move the median.
  EXPECT_DOUBLE_EQ(MedianOverSlices({10, 11, 12, 500, 11}), 11.0);
}

TEST(SliceTest, MinIgnoresUnsupportedSlices) {
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(MinOverSlices({5.0, nan, 1.0, 100.0}), 1.0);
  EXPECT_DOUBLE_EQ(MinOverSlices({nan, 7.0}), 7.0);
  EXPECT_TRUE(std::isnan(MinOverSlices({nan})));
  EXPECT_TRUE(std::isnan(MinOverSlices({})));
  // Disturbed slices, however many, do not move the least disturbed one.
  EXPECT_DOUBLE_EQ(MinOverSlices({30, 11, 45, 500, 12}), 11.0);
}

TEST(GoodputTest, RefusalsAndDeadlineMissesAreMisses) {
  const std::vector<double> limits = {50.0, 1000.0};
  const std::vector<Outcome> outcomes = {
      {0, true, 10.0},    // interactive, in time: good
      {0, true, 50.0},    // exactly at the limit: good
      {0, true, 50.5},    // late: miss
      {0, false, 1.0},    // refused quickly: miss
      {1, true, 900.0},   // batch, in time: good
      {1, true, 1200.0},  // batch, late: miss
      {1, false, 0.0},    // batch shed: miss
  };
  EXPECT_DOUBLE_EQ(GoodputRps(outcomes, limits, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(GoodputRps({}, limits, 2.0), 0.0);
}

TEST(SelfTimeTest, SpanMinusCoveredChildren) {
  const std::vector<Span> spans = {
      {1, -1, 0, "net", 0.0, 10.0},
      {2, 1, 0, "serve", 1.0, 4.0},
      {3, 1, 0, "serve", 3.0, 6.0},   // overlaps span 2: union is 1..6
      {4, 1, 0, "late", 9.0, 12.0},   // only 9..10 lies inside the parent
      {5, 2, 0, "core", 1.5, 2.5},    // grandchild: not the parent's
      {6, -1, 1, "other", 0.0, 3.0},  // another request's root
  };
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans[0], spans), 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans[1], spans), 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans[4], spans), 1.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans[5], spans), 3.0);
}

}  // namespace
}  // namespace thalibench
}  // namespace thali
