// The differential sweep (differential.hpp): 500 drawn fault stacks, each
// run on the stepped engine and held byte-for-byte on the sharded engine
// at 1 shard and at two more shard counts from {2, 3, 4, 5, 8}, with
// SBRB cases also checked against the SbrbRefNode oracle.  The seeds are
// split into blocks of 25, one ctest entry each, so no entry dominates a
// parallel ctest run.
//
// Carries the ctest label `sanitize`: the tsan preset runs the multi-shard
// executions under ThreadSanitizer.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "differential.hpp"

namespace cg {
namespace {

constexpr int kSeeds = 500;
constexpr int kBlock = 25;

class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, SeedBlock) {
  const int first = GetParam() * kBlock;
  for (int seed = first; seed < first + kBlock; ++seed) {
    expect_differential(draw_case(static_cast<std::uint64_t>(seed)));
    if (HasFailure()) return;  // one failing case is enough to debug
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Differential,
                         ::testing::Range(0, kSeeds / kBlock));

// The sweep covers, for every family, every fault feature the generator
// draws and every shard count, and every Byzantine mode on each of the
// protocols that forward payloads (CCG, FCG, SBRB).  Drawing is cheap, so
// this checks the distribution itself, not a run.
TEST(Differential, CasesCoverEveryFamilyFeatureAndShardCount) {
  std::map<Algo, std::set<std::string>> seen;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const DiffCase c = draw_case(static_cast<std::uint64_t>(seed));
    ASSERT_EQ(config_error(c.cfg), "") << describe(c);
    ASSERT_GE(c.cfg.n, 40);
    ASSERT_LE(c.cfg.n, 160);
    for (const auto& bn : c.cfg.byzantine.nodes) ASSERT_NE(bn.node, c.cfg.root);
    auto& s = seen[c.algo];
    const auto& cfg = c.cfg;
    s.insert(cfg.rx == RxPolicy::kOnePerStep ? "rx=one" : "rx=drain");
    s.insert(cfg.logp.l_over_o == LogP::unit().l_over_o ? "logp=unit"
                                                        : "logp=piz_daint");
    if (cfg.jitter_max > 0) s.insert("jitter");
    if (cfg.drop_prob > 0) s.insert("drop");
    if (cfg.burst.enabled()) s.insert("burst");
    if (!cfg.failures.pre_failed.empty()) s.insert("pre-failed");
    if (!cfg.failures.online.empty()) s.insert("online");
    if (!cfg.failures.restarts.empty()) s.insert("restart");
    if (!cfg.stragglers.empty()) s.insert("straggler");
    if (!cfg.partitions.empty()) s.insert("partition");
    if (c.acfg.reliable.enabled) s.insert("reliable");
    if (cfg.byzantine.nodes.empty()) s.insert("no-byz");
    for (const auto& bn : cfg.byzantine.nodes)
      s.insert(std::string("byz=") + byz_mode_name(bn.mode));
    s.insert("shards=1");
    for (const int k : shard_pair(c.seed))
      s.insert("shards=" + std::to_string(k));
  }

  std::set<std::string> want = {
      "rx=one",   "rx=drain",   "logp=unit",  "logp=piz_daint", "jitter",
      "drop",     "burst",      "pre-failed", "online",         "restart",
      "straggler", "partition", "no-byz",     "shards=1",       "shards=2",
      "shards=3", "shards=4",   "shards=5",   "shards=8"};
  for (int m = 0; m < kByzModeCount; ++m)
    want.insert(std::string("byz=") + byz_mode_name(static_cast<ByzMode>(m)));
  for (const Algo algo : kDiffFamilies) {
    std::set<std::string> need = want;
    if (algo != Algo::kSbrb) need.insert("reliable");
    for (const auto& feature : need)
      EXPECT_EQ(seen[algo].count(feature), 1u)
          << algo_name(algo) << " never drew " << feature;
  }
}

}  // namespace
}  // namespace cg
