// Unit tests for the common substrate: RNG determinism and distribution
// sanity, streaming statistics, table/plot rendering, the LRU map and the
// worker-pool loop.
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/ascii_plot.h"
#include "common/lru_map.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "gtest/gtest.h"

namespace coc {
namespace {

/// Keys most recently used first.
std::vector<std::string> KeysOf(const LruMap<int>& map) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  return keys;
}

TEST(LruMap, EvictsLeastRecentlyUsedAndFindTouches) {
  LruMap<int> map(2);
  map.Insert("a", 1);
  map.Insert("b", 2);
  EXPECT_EQ(KeysOf(map), (std::vector<std::string>{"b", "a"}));
  ASSERT_NE(map.Find("a"), nullptr);  // touch: a is now most recent
  EXPECT_EQ(KeysOf(map), (std::vector<std::string>{"a", "b"}));
  map.Insert("c", 3);  // evicts b, the least recently used — not a
  EXPECT_EQ(KeysOf(map), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(map.Find("b"), nullptr);
  EXPECT_EQ(map.evictions(), 1u);
  map.Insert("b", 4);  // evicts a: c was touched more recently by insert
  EXPECT_EQ(KeysOf(map), (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(map.evictions(), 2u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.Find("b"), 4);
}

TEST(LruMap, InsertKeepsTheResidentValueAndTouchesIt) {
  // Racing workers both insert; the first insert wins and both callers
  // get the resident value back.
  LruMap<int> map(2);
  map.Insert("a", 1);
  map.Insert("b", 2);
  int& resident = map.Insert("a", 99);
  EXPECT_EQ(resident, 1);
  EXPECT_EQ(KeysOf(map), (std::vector<std::string>{"a", "b"}));
  resident = 5;  // the reference is the stored value
  EXPECT_EQ(*map.Find("a"), 5);
  EXPECT_EQ(map.evictions(), 0u);
}

TEST(LruMap, CapacityZeroIsUnbounded) {
  LruMap<int> map;
  for (int i = 0; i < 1000; ++i) map.Insert(std::to_string(i), i);
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(map.evictions(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(*map.Find("0"), 0);
}

TEST(LruMap, ShortAndLongKeysSurviveReordering) {
  // The index views each node's own key bytes, including short keys held
  // inline in the string object; splicing must not invalidate them.
  LruMap<int> map(3);
  const std::string long_key(300, 'k');
  map.Insert("s", 1);
  map.Insert(long_key, 2);
  map.Insert("t", 3);
  for (int round = 0; round < 10; ++round) {
    ASSERT_NE(map.Find("s"), nullptr);
    ASSERT_NE(map.Find(long_key), nullptr);
    ASSERT_NE(map.Find("t"), nullptr);
  }
  map.Insert("u", 4);  // evicts "s", touched least recently
  EXPECT_EQ(map.Find("s"), nullptr);
  EXPECT_EQ(*map.Find(long_key), 2);
}

TEST(ParallelFor, VisitsEveryIndexOnceForAnyThreadCount) {
  for (const int threads : {0, 1, 3, 16}) {
    std::vector<std::atomic<int>> visits(50);
    ParallelFor<int>(visits.size(), threads, [&](std::size_t i, int&) {
      ++visits[i];
      return true;
    });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelFor, OneWorkerRunsInOrderOnTheCallingThreadAndStops) {
  // One worker is the same loop, run inline: ascending order, one State,
  // and a false return stops the claims right there.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  ParallelFor<std::vector<std::size_t>>(
      10, 1, [&](std::size_t i, std::vector<std::size_t>& state) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        state.push_back(i);
        seen = state;
        return i < 4;
      });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.NextDouble());
  EXPECT_NEAR(s.Mean(), 0.5, 0.01);
}

TEST(Rng, NextBoundedCoversRangeUniformly) {
  Rng rng(3);
  constexpr std::uint64_t kBound = 7;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBound)];
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / double(kBound),
                5 * std::sqrt(kDraws / double(kBound)));
  }
}

TEST(Rng, NextBoundedZeroAndOne) {
  Rng rng(5);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats s;
  const double rate = 0.25;
  for (int i = 0; i < 200000; ++i) s.Add(rng.NextExponential(rate));
  EXPECT_NEAR(s.Mean(), 1.0 / rate, 0.05);
  // Exponential variance = 1/rate^2.
  EXPECT_NEAR(s.Variance(), 1.0 / (rate * rate), 0.5);
}

TEST(Rng, ExponentialAlwaysPositiveFinite) {
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.NextExponential(1e-4);
    EXPECT_GT(x, 0.0);
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(23);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10;
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(3.0);
  const double mean = a.Mean();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.Mean(), mean);
  RunningStats c;
  c.Merge(a);
  EXPECT_DOUBLE_EQ(c.Mean(), mean);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"a", "long_header", "c"});
  t.AddRow({"1", "2", "3"});
  t.AddRow({"wide_cell", "x", "y"});
  EXPECT_EQ(t.RowCount(), 2u);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("wide_cell"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t({"x"});
  t.AddRow({"a,b"});
  t.AddRow({"he said \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, ShortRowIsPadded) {
  Table t({"a", "b"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(3.14), "3.14");
  EXPECT_EQ(FormatDouble(5.0), "5");
  EXPECT_EQ(FormatDouble(0.5, 3), "0.5");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
}

TEST(AsciiPlot, RendersFinitePointsOnly) {
  PlotSeries s{"model", '*',
               {{0, 1}, {1, 2}, {2, std::numeric_limits<double>::infinity()}}};
  const std::string out = RenderAsciiPlot({s}, 40, 10, "title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, EmptyInput) {
  EXPECT_EQ(RenderAsciiPlot({}, 40, 10), "(no finite points)\n");
}

}  // namespace
}  // namespace coc
