// reliable_broadcast() facade (runtime/broadcast.hpp): tuned OCG/CCG/FCG on
// the multi-threaded runtime, the window-sharded engine.
//
// Carries the ctest label `sanitize`, so the tsan preset runs the
// multi-shard broadcasts under ThreadSanitizer.
#include <gtest/gtest.h>

#include "runtime/broadcast.hpp"

namespace cg {
namespace {

TEST(Broadcast, AllConsistencyLevelsReachEveryone) {
  for (const auto level : {Consistency::kWeak, Consistency::kChecked,
                           Consistency::kFailProof}) {
    BroadcastOptions opts;
    opts.n = 300;
    opts.consistency = level;
    opts.threads = 3;
    const BroadcastReport rep = reliable_broadcast(opts, 5);
    EXPECT_TRUE(rep.reached_all_active);
    EXPECT_EQ(rep.reached, 300);
    EXPECT_GT(rep.latency_us, 0);
    EXPECT_FALSE(rep.summary().empty());
  }
}

TEST(Broadcast, FailProofSurvivesCrashes) {
  BroadcastOptions opts;
  opts.n = 256;
  opts.consistency = Consistency::kFailProof;
  opts.f = 1;
  opts.threads = 2;
  opts.failures.pre_failed = {40, 41, 42};
  opts.failures.online.push_back({100, 25});
  const BroadcastReport rep = reliable_broadcast(opts, 9);
  EXPECT_TRUE(rep.delivered_all_or_nothing);
  EXPECT_TRUE(rep.reached_all_active);
  EXPECT_EQ(rep.active, 252);
}

TEST(Broadcast, WeakLevelUsesOcg) {
  BroadcastOptions opts;
  opts.n = 64;
  opts.consistency = Consistency::kWeak;
  const BroadcastReport rep = reliable_broadcast(opts, 2);
  EXPECT_EQ(rep.algo, Algo::kOcg);
}

}  // namespace
}  // namespace cg
