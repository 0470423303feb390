// Unit tests for common utilities: ring arithmetic, RNG, statistics,
// tables, and flag parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/ascii_plot.hpp"
#include "common/flags.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace cg {
namespace {

// ---------------------------------------------------------------- ring --

TEST(Ring, BasicDistances) {
  const Ring r(10);
  EXPECT_EQ(r.dist_fwd(3, 7), 4);
  EXPECT_EQ(r.dist_bwd(3, 7), 6);
  EXPECT_EQ(r.dist_fwd(7, 3), 6);
  EXPECT_EQ(r.dist_bwd(7, 3), 4);
  EXPECT_EQ(r.dist_fwd(5, 5), 0);
  EXPECT_EQ(r.dist_bwd(5, 5), 0);
}

TEST(Ring, StepAndAt) {
  const Ring r(10);
  EXPECT_EQ(r.at(9, 1), 0);
  EXPECT_EQ(r.at(0, -1), 9);
  EXPECT_EQ(r.at(0, -21), 9);
  EXPECT_EQ(r.at(5, 100), 5);
  EXPECT_EQ(r.step(2, Dir::kFwd, 3), 5);
  EXPECT_EQ(r.step(2, Dir::kBwd, 3), 9);
}

TEST(Ring, DirectionHelpers) {
  EXPECT_EQ(opposite(Dir::kFwd), Dir::kBwd);
  EXPECT_EQ(opposite(Dir::kBwd), Dir::kFwd);
  EXPECT_EQ(dir_sign(Dir::kFwd), 1);
  EXPECT_EQ(dir_sign(Dir::kBwd), -1);
}

TEST(Ring, BetweenFwd) {
  const Ring r(10);
  EXPECT_TRUE(r.between_fwd(2, 4, 7));
  EXPECT_FALSE(r.between_fwd(2, 7, 4));
  EXPECT_TRUE(r.between_fwd(8, 1, 3));   // wraps
  EXPECT_FALSE(r.between_fwd(8, 8, 3));  // strict
  EXPECT_FALSE(r.between_fwd(8, 3, 3));
}

class RingPropertyTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(RingPropertyTest, DistancesAreInverse) {
  const NodeId n = GetParam();
  const Ring r(n);
  for (NodeId a = 0; a < n; ++a) {
    const NodeId b = (a * 7 + 3) % n;
    // fwd + bwd distances between distinct points sum to n.
    if (a != b) {
      EXPECT_EQ(r.dist_fwd(a, b) + r.dist_bwd(a, b), n);
    }
    // walking dist in the direction gets you there.
    EXPECT_EQ(r.step(a, Dir::kFwd, r.dist_fwd(a, b)), b);
    EXPECT_EQ(r.step(a, Dir::kBwd, r.dist_bwd(a, b)), b);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingPropertyTest,
                         ::testing::Values<NodeId>(1, 2, 3, 5, 8, 64, 1000));

// ----------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LE(same, 1);
}

TEST(Rng, BoundedRange) {
  Xoshiro256 g(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(g.bounded(17), 17u);
    EXPECT_EQ(g.bounded(1), 0u);
  }
}

TEST(Rng, UniformInclusive) {
  Xoshiro256 g(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = g.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(Rng, OtherNodeNeverSelf) {
  Xoshiro256 g(11);
  for (int i = 0; i < 5000; ++i) {
    const auto v = g.other_node(3, 8);
    EXPECT_NE(v, 3);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 8);
  }
}

TEST(Rng, OtherNodeUniform) {
  // Chi-square-ish sanity: each of the 7 other nodes ~1/7 of draws.
  Xoshiro256 g(13);
  int counts[8] = {0};
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[g.other_node(3, 8)];
  EXPECT_EQ(counts[3], 0);
  for (int v = 0; v < 8; ++v) {
    if (v == 3) continue;
    EXPECT_NEAR(counts[v], draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
}

TEST(Rng, Uniform01Range) {
  Xoshiro256 g(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, DerivedSeedsIndependent) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(5, 9), derive_seed(5, 9));
}

// --------------------------------------------------------------- stats --

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Samples, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, MedianCi) {
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  const auto [lo, hi] = s.median_ci95();
  EXPECT_LT(lo, 500.0);
  EXPECT_GT(hi, 500.0);
  EXPECT_NEAR(lo, 500 - 31, 3);  // 1.96*sqrt(1000)/2 ~ 31
  EXPECT_NEAR(hi, 500 + 31, 3);
}

TEST(Samples, AddAfterQuantileKeepsConsistency) {
  Samples s;
  s.add(3);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);  // re-sorts after mutation
}

// --------------------------------------------------------------- table --

TEST(Table, AlignsColumns) {
  Table t({"algo", "lat"});
  t.add_row({"OCG", "42"});
  t.add_row({"longername", "7"});
  const std::string out = t.str();
  EXPECT_NE(out.find("algo"), std::string::npos);
  EXPECT_NE(out.find("longername"), std::string::npos);
  // header and rows share the same column start for "lat"/"42".
  const auto head = out.find("lat");
  const auto row = out.find("42");
  EXPECT_EQ(head % (out.find('\n') + 1), row % (out.find('\n') + 1));
}

TEST(Table, Csv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell("%d", 42), "42");
  EXPECT_EQ(Table::cell("%.2f", 1.5), "1.50");
  EXPECT_EQ(Table::cell("%s/%s", "a", "b"), "a/b");
}

// ---------------------------------------------------------- ascii plot --

TEST(AsciiPlotTest, RendersSeriesAndLegend) {
  AsciiPlot p(20, 6);
  p.add_series("line", '*', {{0, 0}, {1, 1}, {2, 2}});
  p.add_series("flat", '-', {{0, 1}, {2, 1}});
  const std::string out = p.str();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("line"), std::string::npos);
  EXPECT_NE(out.find("flat"), std::string::npos);
  EXPECT_NE(out.find("2.0"), std::string::npos);  // axis labels
  EXPECT_NE(out.find("0.0"), std::string::npos);
}

TEST(AsciiPlotTest, EmptyPlotIsSafe) {
  AsciiPlot p(20, 6);
  EXPECT_EQ(p.str(), "(empty plot)\n");
}

TEST(AsciiPlotTest, ExtremesLandOnCorners) {
  AsciiPlot p(10, 5);
  p.add_series("s", '#', {{0, 0}, {9, 4}});
  const std::string out = p.str();
  // Highest y value renders on the first grid row, lowest on the last.
  const auto first_nl = out.find('\n');
  EXPECT_NE(out.substr(0, first_nl).find('#'), std::string::npos);
}

TEST(AsciiPlotTest, ConstantSeriesDoesNotDivideByZero) {
  AsciiPlot p(12, 4);
  p.add_series("c", 'o', {{1, 5}, {2, 5}, {3, 5}});
  EXPECT_FALSE(p.str().empty());
}

// --------------------------------------------------------------- flags --

TEST(Flags, ParsesForms) {
  const char* argv[] = {"prog", "--n=42",      "--name=x", "--verbose",
                        "pos1", "--ratio=1.5", "pos2"};
  Flags f(7, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_EQ(f.get_string("name", ""), "x");
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0), 1.5);
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
  EXPECT_EQ(f.get_int("missing", -7), -7);
  EXPECT_TRUE(f.has("n"));
  EXPECT_FALSE(f.has("m"));
}

TEST(Flags, StrictValuesAndUnreadKeys) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog",  "--a=off", "--b=yes",   "--c=0",
                        "--d=ture", "--n=",  "--typo=1"};
  Flags f(7, const_cast<char**>(argv));
  EXPECT_FALSE(f.get_bool("a", true));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_FALSE(f.get_bool("c", true));
  EXPECT_EXIT(f.get_bool("d", false), ::testing::ExitedWithCode(2),
              "--d=ture: expected true/false");
  EXPECT_EXIT(f.get_int("n", 1), ::testing::ExitedWithCode(2),
              "--n=: expected an integer");
  EXPECT_TRUE(f.has("d"));  // has() counts as a read
  EXPECT_TRUE(f.has("n"));
  EXPECT_EXIT(f.check_all_read(), ::testing::ExitedWithCode(2),
              "--typo=1: unknown flag");
  EXPECT_EQ(f.get_int_at_least("typo", 0, 1), 1);
  f.check_all_read();  // every key has been read: returns
}

}  // namespace
}  // namespace cg
