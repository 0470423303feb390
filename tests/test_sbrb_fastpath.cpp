// SBRB fast-path verification (gossip/sbrb.hpp):
//
//   * SbrbNode sleeps through idle ticks (next_tick), and the engines'
//     self-profiles agree: both count the same on_tick calls at every
//     shard count;
//   * sbrb_fill_sample output is sorted, distinct and never self;
//   * sbrb_config_error / sbrb_samples reject malformed knobs with
//     human-readable CG_CHECK messages (death tests).
//
// The fast path is held byte-for-byte to the SbrbRefNode oracle
// (sbrb_ref_node.hpp) under the full fault stack by the differential
// sweep, test_differential.cpp.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "differential.hpp"
#include "gossip/sbrb.hpp"
#include "sim/core/profile.hpp"

namespace cg {
namespace {

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(SbrbConfig, ErrorStringsNameTheBadKnob) {
  EXPECT_EQ(sbrb_config_error(1e-3, 0.15), "");
  EXPECT_EQ(sbrb_config_error(0.999, 0.0), "");
  EXPECT_NE(sbrb_config_error(0.0, 0.1).find("sbrb_eps"), std::string::npos);
  EXPECT_NE(sbrb_config_error(1.0, 0.1).find("sbrb_eps"), std::string::npos);
  EXPECT_NE(sbrb_config_error(-2.0, 0.1).find("sbrb_eps"), std::string::npos);
  EXPECT_NE(sbrb_config_error(1e-3, 0.5).find("sbrb_byz_frac"),
            std::string::npos);
  EXPECT_NE(sbrb_config_error(1e-3, -0.01).find("sbrb_byz_frac"),
            std::string::npos);
}

using SbrbConfigDeathTest = ::testing::Test;

TEST(SbrbConfigDeathTest, SamplesRejectEpsOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)sbrb_samples(64, 0.0, 0.1),
               "sbrb_eps must be in \\(0, 1\\)");
  EXPECT_DEATH((void)sbrb_samples(64, 1.0, 0.1), "sbrb_eps");
}

TEST(SbrbConfigDeathTest, SamplesRejectByzFracOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)sbrb_samples(64, 1e-3, 0.5),
               "sbrb_byz_frac must be in \\[0, 0.5\\)");
  EXPECT_DEATH((void)sbrb_samples(64, 1e-3, -0.1), "sbrb_byz_frac");
}

// ---------------------------------------------------------------------------
// Sample generator
// ---------------------------------------------------------------------------

TEST(SbrbFillSample, SortedDistinctAndNeverSelf) {
  std::array<NodeId, 64> buf{};
  for (const NodeId n : {5, 64, 1000}) {
    for (const NodeId self : {NodeId{0}, NodeId{1}, n - 1}) {
      for (int phase = 0; phase < 3; ++phase) {
        const int k = static_cast<int>(std::min<NodeId>(n - 1, 64));
        sbrb_fill_sample(12345, self, n, phase, k, buf.data());
        for (int i = 0; i < k; ++i) {
          EXPECT_NE(buf[static_cast<std::size_t>(i)], self);
          EXPECT_LT(buf[static_cast<std::size_t>(i)], n);
          if (i > 0) {
            EXPECT_LT(buf[static_cast<std::size_t>(i - 1)],
                      buf[static_cast<std::size_t>(i)]);
          }
        }
      }
    }
  }
  // Deterministic: same key, same sample.
  std::array<NodeId, 64> again{};
  sbrb_fill_sample(12345, 3, 1000, 1, 64, buf.data());
  sbrb_fill_sample(12345, 3, 1000, 1, 64, again.data());
  EXPECT_EQ(buf, again);
  // Phases decorrelate: echo and ready samples differ.
  sbrb_fill_sample(12345, 3, 1000, 0, 64, again.data());
  EXPECT_NE(buf, again);
}

// ---------------------------------------------------------------------------
// Sleeping fast path vs the stepped engine
// ---------------------------------------------------------------------------

// Clean network, no faults: idle SbrbNodes sleep until the deadline on
// both engines, and the sharded engine's self-profile must be
// indistinguishable from the stepped engine's at every shard count - same
// callback counts (on_tick calls actually made), same trace bytes.  The
// fast path against the SbrbRefNode oracle under every fault stack is
// checked by the differential sweep (test_differential.cpp).
TEST(SbrbFastPath, ShardedKernelProfileMatchesStepped) {
  DiffCase c;
  c.algo = Algo::kSbrb;
  c.cfg.n = 512;
  c.cfg.logp = LogP::unit();
  c.cfg.seed = 4242;
  c.acfg.sbrb_eps = 1e-3;
  c.acfg.sbrb_byz_frac = 0.1;

  auto profiled = [&](EngineKind kind, int threads, EngineProfile& prof) {
    DiffCase pc = c;
    pc.cfg.profile = &prof;
    return observe(pc, {kind, threads});
  };

  EngineProfile serial;
  const Observed want = profiled(EngineKind::kStepped, 1, serial);
  EXPECT_GT(serial.callbacks_tick, 0);
  EXPECT_GT(serial.callbacks_receive, 0);
  for (const int shards : {1, 2, 8}) {
    EngineProfile sh;
    const Observed got = profiled(EngineKind::kSharded, shards, sh);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(serial.callbacks_start, sh.callbacks_start);
    EXPECT_EQ(serial.callbacks_receive, sh.callbacks_receive);
    EXPECT_EQ(serial.callbacks_tick, sh.callbacks_tick);
    EXPECT_EQ(want.events, got.events);
  }
}

}  // namespace
}  // namespace cg
