// Shard-invariance and substrate tests for the window-sharded engine
// (sim/sharded_engine.hpp).  The engine's contract is stronger than the
// cross-engine metric parity pinned in test_engine_parity.cpp: for ANY
// shard count the run must be bit-identical - same canonical trace bytes,
// same serialized metrics, same t_end - because shards only exchange
// messages at delivery-window boundaries in canonical (sent_at, sender)
// order and every RNG stream is owned by exactly one node or sender.  The
// randomized fault-stack sweep over shard counts is test_differential.cpp.
//
// These tests carry the ctest label `sanitize`, so the tsan preset runs
// the multi-shard executions under ThreadSanitizer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "differential.hpp"
#include "gossip/ccg.hpp"
#include "gossip/fcg.hpp"
#include "gossip/gos.hpp"
#include "harness/runner.hpp"
#include "obs/report.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/inbox.hpp"
#include "sim/core/node_store.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

AlgoConfig algo_cfg(Algo algo) {
  AlgoConfig acfg;
  acfg.T = 24;
  acfg.drain_extra = 2;
  if (algo == Algo::kOcg) acfg.ocg_corr_sends = 10;
  if (algo == Algo::kFcg) acfg.fcg_f = 2;
  return acfg;
}

// The sharded engine agrees with the stepped reference INCLUDING t_end:
// it reconstructs the stepped engine's exit step exactly.
TEST(ShardedEngine, MatchesSteppedIncludingExitStep) {
  for (const auto rx : {RxPolicy::kDrainAll, RxPolicy::kOnePerStep}) {
    RunConfig cfg;
    cfg.n = 160;
    cfg.logp = LogP::piz_daint();
    cfg.seed = 31;
    cfg.rx = rx;
    cfg.jitter_max = 2;
    cfg.drop_prob = 0.02;
    cfg.failures.pre_failed = {3};
    cfg.failures.online.push_back({25, 7});
    cfg.failures.restarts.push_back({9, 12, 30});
    cfg.record_node_detail = true;
    const AlgoConfig acfg = algo_cfg(Algo::kCcg);
    const RunMetrics stepped =
        run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
    for (const int shards : {1, 2, 8}) {
      const RunMetrics sh =
          run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, shards});
      SCOPED_TRACE(shards);
      EXPECT_EQ(obs::to_json(stepped), obs::to_json(sh));
      EXPECT_EQ(stepped.t_end, sh.t_end);
    }
  }
}

// Substrate invariants from the engine profile: per-shard stats reconcile
// with the totals, every window is accounted, and the memory plan reports
// a positive per-node footprint.
TEST(ShardedEngine, ProfileSubstrateInvariants) {
  RunConfig cfg;
  cfg.n = 512;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 5;
  EngineProfile prof;
  cfg.profile = &prof;
  const AlgoConfig acfg = algo_cfg(Algo::kCcg);
  const RunMetrics m =
      run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, 4});
  EXPECT_TRUE(m.all_active_colored);

  EXPECT_EQ(prof.shards, 4);
  EXPECT_EQ(prof.shard_stats.size(), 4u);
  EXPECT_GT(prof.windows, 0);
  EXPECT_EQ(prof.steps, m.t_end);
  std::int64_t fired = 0, boundary = 0, stalls = 0;
  for (const auto& s : prof.shard_stats) {
    fired += s.events_fired;
    boundary += s.boundary_msgs;
    stalls += s.window_stalls;
  }
  EXPECT_EQ(fired, prof.events_fired);
  EXPECT_EQ(boundary, prof.boundary_msgs);
  EXPECT_EQ(stalls, prof.window_stalls);
  EXPECT_GT(prof.boundary_msgs, 0);  // gossip targets are uniform: must cross
  // Calendar ledger balances on a drained run.
  EXPECT_EQ(prof.events_fired, prof.events_scheduled);
  EXPECT_GT(prof.bytes_per_node, 0);
  EXPECT_LT(prof.bytes_per_node, 10000);
  EXPECT_GT(prof.peak_rss_bytes, 0);
}

// Degenerate and truncation edges: tiny rings, a non-zero root, and a
// max_steps cut must behave identically for any shard count (the block
// partition clamps empty shards away).
TEST(ShardedEngine, EdgeCases) {
  const AlgoConfig acfg = algo_cfg(Algo::kCcg);
  for (const NodeId n : {1, 2, 5}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.seed = 3;
    const RunMetrics stepped =
        run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
    for (const int shards : {1, 8}) {
      const RunMetrics sh =
          run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, shards});
      SCOPED_TRACE(std::to_string(n) + " nodes");
      EXPECT_EQ(obs::to_json(stepped), obs::to_json(sh));
    }
  }
  {
    RunConfig cfg;
    cfg.n = 96;
    cfg.seed = 11;
    cfg.root = 63;
    cfg.max_steps = 7;  // cut mid-gossip
    const RunMetrics stepped =
        run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
    EXPECT_TRUE(stepped.hit_max_steps);
    for (const int shards : {1, 2, 8}) {
      const RunMetrics sh =
          run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, shards});
      SCOPED_TRACE(shards);
      EXPECT_EQ(obs::to_json(stepped), obs::to_json(sh));
    }
  }
}

// Direct-construction path (bypassing the runner): the template is usable
// with any Node type and reports through RunConfig::profile.
TEST(ShardedEngine, DirectConstruction) {
  RunConfig cfg;
  cfg.n = 256;
  cfg.seed = 17;
  EngineProfile prof;
  cfg.profile = &prof;
  GosNode::Params p;
  p.T = 20;
  ShardedEngine<GosNode> eng(cfg, p, 2);
  const RunMetrics m = eng.run();
  EXPECT_GT(m.n_colored, 0);
  EXPECT_EQ(prof.shards, 2);
  EXPECT_GT(prof.callbacks_tick, 0);
}

// --- Scenarios against the stepped oracle ----------------------------------

// Runs `cfg` on the stepped engine and on the sharded engine at 1, 3 and 5
// shards; canonical traces, serialized metrics (t_end and per-node detail
// included) and telemetry must be identical.  Returns the stepped run.
template <class Node>
Observed expect_matches_stepped(const RunConfig& cfg,
                                const typename Node::Params& p) {
  const Observed stepped = observe<Node>(cfg, p, {EngineKind::kStepped, 1});
  for (const int shards : {1, 3, 5}) {
    const ExecConfig exec{EngineKind::kSharded, shards};
    expect_same_observation(stepped, observe<Node>(cfg, p, exec),
                            std::to_string(shards) + " shards");
  }
  return stepped;
}

bool has(const Observed& o, const char* metric) {
  return o.metrics.find(metric) != std::string::npos;
}

RunConfig unit_cfg(NodeId n, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  return cfg;
}

TEST(ShardedEngine, MatchesWithOnlineFailures) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunConfig cfg = unit_cfg(150, seed);
    cfg.failures.pre_failed = {3, 77};
    cfg.failures.online.push_back({40, 9});
    cfg.failures.online.push_back({95, 17});
    FcgNode::Params p;
    p.T = 13;
    p.f = 2;
    SCOPED_TRACE(seed);
    expect_matches_stepped<FcgNode>(cfg, p);
  }
}

TEST(ShardedEngine, MatchesWithJitter) {
  RunConfig cfg = unit_cfg(120, 4);
  cfg.jitter_max = 3;
  CcgNode::Params p;
  p.T = 13;
  expect_matches_stepped<CcgNode>(cfg, p);
}

TEST(ShardedEngine, MatchesWithHeterogeneousLinks) {
  RunConfig cfg = unit_cfg(128, 8);
  cfg.link_extra = two_level_topology(16, 4);
  cfg.link_extra_max = 4;
  CcgNode::Params p;
  p.T = 15;
  p.drain_extra = 4;
  EXPECT_TRUE(has(expect_matches_stepped<CcgNode>(cfg, p),
                  "\"all_active_colored\":true"));
}

TEST(ShardedEngine, SosPathMatches) {
  // Lone root with f=1 wraps into SOS; both engines must agree on the
  // flood's full accounting.
  FcgNode::Params p;
  p.T = 0;
  p.f = 1;
  EXPECT_TRUE(has(expect_matches_stepped<FcgNode>(unit_cfg(24, 2), p),
                  "\"sos_triggered\":true"));
}

// Minimal protocol that leaves the network quiet for a stretch: the root
// sends once at step 0 and completes (no further ticks); node 1 relays on
// receive and completes.  No node ever ticks, so whole windows pass with
// nothing to do.
class QuietRelayNode {
 public:
  struct Params {};
  QuietRelayNode(const Params&, NodeId self, NodeId) : self_(self) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (!ctx.is_root()) return;
    ctx.mark_colored();
    ctx.deliver();
    Message m;
    m.tag = Tag::kGossip;
    m.time = ctx.now();
    ctx.send(1, m);
    ctx.complete();
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message&) {
    ctx.mark_colored();
    ctx.deliver();
    if (self_ == 1) {
      Message m;
      m.tag = Tag::kGossip;
      m.time = ctx.now();
      ctx.send(2, m);
    }
    ctx.complete();
  }

  template <class Ctx>
  void on_tick(Ctx&) {}

 private:
  NodeId self_;
};

// Crash-before-arrival after a quiet stretch: node 2's online crash at
// step 16 must take effect before the message ARRIVING at step 16 (root
// sends at step 0, node 1 relays at step 8, delivery delay 8), as the
// stepped engine applies crashes ahead of deliveries within a step.  The
// sharded engine applies crash schedules lazily, at the moment the node
// would act, so this pins that the lazy kill still wins the same-step race.
// The kill's protocol reset scrubs a wrong order from RunMetrics, so the
// check is on the canonical trace: node 2 has only a kFail event.
TEST(ShardedEngine, CrashBeatsSameStepArrivalAfterQuietStretch) {
  RunConfig cfg;
  cfg.n = 3;
  cfg.logp = LogP{.l_over_o = 7, .o_us = 1.0};  // delivery delay = 8 steps
  cfg.seed = 1;
  cfg.failures.online.push_back({2, 16});  // node 2 dies at the arrival step
  std::istringstream trace(
      expect_matches_stepped<QuietRelayNode>(cfg, {}).trace());
  for (std::string line; std::getline(trace, line);) {
    TraceEvent ev;
    ASSERT_TRUE(obs::from_jsonl(line, ev)) << line;
    if (ev.node == 2) {
      EXPECT_EQ(ev.kind, TraceEvent::Kind::kFail);
    }
  }
}

TEST(ShardedEngine, MaxStepsSafety) {
  RunConfig cfg = unit_cfg(8, 1);
  cfg.max_steps = 5;
  GosNode::Params p;
  p.T = 100;  // would run far longer
  EXPECT_TRUE(has(expect_matches_stepped<GosNode>(cfg, p),
                  "\"hit_max_steps\":true"));
}

// --- SoA substrate units ---------------------------------------------------

TEST(PackedBits, SetTestClearAndWordBoundaries) {
  PackedBits b;
  b.reset(200);
  for (const NodeId i : {0, 1, 63, 64, 65, 127, 128, 199}) {
    EXPECT_FALSE(b.test(i));
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  b.clear(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(65));

  std::vector<NodeId> seen;
  b.for_each_set(0, 200, [&](NodeId i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<NodeId>{0, 1, 63, 65, 127, 128, 199}));

  // Sub-range sweeps respect [lo, hi) across word boundaries.
  seen.clear();
  b.for_each_set(63, 128, [&](NodeId i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<NodeId>{63, 65, 127}));

  seen.clear();
  b.for_each_set(100, 100, [&](NodeId i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

// The memory plan counts every per-node array the store holds: the
// protocol slab, the RNG streams and the lifecycle arrays (alive, state and
// Byzantine bytes, held/delivered payload digests, four step stamps =
// 3 + 2 * 4 + 4 * 8 = 43 bytes per node).
TEST(NodeStore, FootprintCountsEveryLifecycleArray) {
  RunConfig cfg;
  cfg.n = 1000;
  NodeStore<GosNode> store;
  store.reset(cfg, GosNode::Params{});
  constexpr std::size_t kLifecycle =
      3 * sizeof(std::uint8_t) + 2 * sizeof(std::uint32_t) + 4 * sizeof(Step);
  static_assert(kLifecycle == 43);
  EXPECT_GE(store.footprint_bytes(),
            static_cast<std::size_t>(cfg.n) *
                (sizeof(GosNode) + sizeof(Xoshiro256) + kLifecycle));
}

TEST(InboxSlab, FifoPerNodeAcrossSharedArena) {
  InboxSlab slab;
  slab.reset(3);
  Message m;
  m.tag = Tag::kGossip;
  for (int k = 0; k < 5; ++k) {
    m.time = k;
    slab.push(0, m);
    m.time = 10 + k;
    slab.push(2, m);
  }
  EXPECT_TRUE(slab.empty(1));
  for (int k = 0; k < 5; ++k) {
    ASSERT_FALSE(slab.empty(0));
    EXPECT_EQ(slab.front(0).time, k);
    slab.pop(0);
    ASSERT_FALSE(slab.empty(2));
    EXPECT_EQ(slab.front(2).time, 10 + k);
    slab.pop(2);
  }
  EXPECT_TRUE(slab.empty(0));
  EXPECT_TRUE(slab.empty(2));
  EXPECT_GT(slab.footprint_bytes(), 0u);
}

}  // namespace
}  // namespace cg
