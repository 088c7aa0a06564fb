// Tests of the benchmark's own arithmetic: the tail-percentile choice,
// the output digest, and span self time.

#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankWithoutFloatingOvershoot) {
  // 0.999 * 1000 is 999.0000000000001 in doubles; the integer rank is 999.
  EXPECT_EQ(PercentileE5(OneTo(1000), 99900), 999.0);
  EXPECT_EQ(PercentileE5(OneTo(1000), 99000), 990.0);
  EXPECT_EQ(PercentileE5(OneTo(10), 50000), 5.0);
  EXPECT_EQ(PercentileE5(OneTo(1), 99990), 1.0);
  EXPECT_EQ(PercentileE5({}, 50000), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(TailTest, PicksHighestPercentileWithTenBeyond) {
  Tail t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  t = TailPercentile(OneTo(999));  // p99 leaves 9 beyond: fall to p90
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 900.0);
  EXPECT_EQ(t.beyond, 99u);

  t = TailPercentile(OneTo(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.beyond, 10u);

  t = TailPercentile(OneTo(100000));
  EXPECT_EQ(t.percentile, 99.99);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailTest, SmallSamplesReportTheMaximum) {
  Tail t = TailPercentile(OneTo(20));  // p50 leaves exactly 10 beyond
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.0);
  t = TailPercentile(OneTo(19));
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 19.0);
  EXPECT_EQ(t.beyond, 0u);
  t = TailPercentile({});
  EXPECT_EQ(t.samples, 0u);
}

TEST(DigestTest, MatchesFnv1aReferenceVectors) {
  Fnv1a empty;
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ULL);
  Fnv1a a;
  a.AddBytes("a", 1);
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
  Fnv1a foobar;
  foobar.AddBytes("foobar", 6);
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ULL);
}

TEST(DigestTest, SeesOrderAndEveryBitOfADouble) {
  Fnv1a x, y, z, w;
  x.AddDouble(1.0);
  x.AddDouble(2.0);
  y.AddDouble(2.0);
  y.AddDouble(1.0);
  EXPECT_NE(x.value(), y.value());
  z.AddDouble(0.0);
  w.AddDouble(-0.0);
  EXPECT_NE(z.value(), w.value());
  Fnv1a u, v;
  u.AddDouble(0.1 + 0.2);
  v.AddDouble(0.3);
  EXPECT_NE(u.value(), v.value());
}

TEST(SelfTimeTest, SubtractsDisjointChildren) {
  EXPECT_EQ(SelfNs({0, 100}, {{10, 20}, {50, 80}}), 60);
  EXPECT_EQ(SelfNs({0, 100}, {}), 100);
}

TEST(SelfTimeTest, OverlappingAndNestedChildrenCountOnce) {
  EXPECT_EQ(SelfNs({0, 100}, {{10, 40}, {30, 60}}), 50);
  EXPECT_EQ(SelfNs({0, 100}, {{10, 90}, {20, 30}}), 20);
  // Order of the children does not matter.
  EXPECT_EQ(SelfNs({0, 100}, {{30, 60}, {10, 40}}), 50);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfNs({100, 200}, {{50, 150}}), 50);
  EXPECT_EQ(SelfNs({100, 200}, {{150, 250}}), 50);
  EXPECT_EQ(SelfNs({100, 200}, {{0, 50}, {250, 300}}), 100);
  EXPECT_EQ(SelfNs({100, 200}, {{0, 300}}), 0);
}

}  // namespace
}  // namespace perfbench
