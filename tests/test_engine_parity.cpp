// Cross-engine parity: the stepped engine (the oracle) and the window-
// sharded engine both execute on the shared simulation core
// (src/sim/core/) and must produce IDENTICAL metrics for the same
// RunConfig - including with per-message jitter, message loss, pre-run and
// online failures, and both receive policies - for every corrected-gossip
// protocol, at any shard count.  Shard counts include odd ones (3, 5, 7),
// whose 64-node-aligned blocks leave trailing shards partly or wholly
// empty on small runs.  The randomized fault-stack sweep over every family
// and shard count is test_differential.cpp; this file keeps the fixed
// matrices, the pinned model digests and the sleep contract.
//
// The sleep contract (next_tick, sim/core/wake_set.hpp) is checked beyond
// SBRB with a tests-only protocol, NapNode, that sleeps to several distinct
// wake steps.
//
// These tests carry the ctest label `sanitize`, so the tsan preset runs
// the multi-threaded executions under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include "differential.hpp"
#include "harness/runner.hpp"
#include "obs/report.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/engine.hpp"
#include "sim/fault/validate.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

// Runs `cfg` on the stepped oracle and on the sharded engine with `shards`
// shards, and checks their serialized metrics agree; returns the oracle's.
RunMetrics expect_engines_agree(Algo algo, const AlgoConfig& acfg,
                                const RunConfig& cfg, int shards) {
  const RunMetrics serial =
      run_once(algo, acfg, cfg, {EngineKind::kStepped, 1});
  const RunMetrics sharded =
      run_once(algo, acfg, cfg, {EngineKind::kSharded, shards});
  EXPECT_EQ(obs::to_json(serial), obs::to_json(sharded))
      << algo_name(algo) << " on " << shards << " shards";
  return serial;
}

// An adversarial-but-realistic system: jitter reorders messages, 2% of
// them vanish, one node is dead from the start and two crash mid-run.
RunConfig harsh_cfg(std::uint64_t seed, RxPolicy rx) {
  RunConfig cfg;
  cfg.n = 150;
  cfg.logp = LogP::piz_daint();
  cfg.seed = seed;
  cfg.rx = rx;
  cfg.jitter_max = 2;
  cfg.drop_prob = 0.02;
  cfg.failures.pre_failed = {5};
  cfg.failures.online.push_back({20, 9});
  cfg.failures.online.push_back({71, 15});
  return cfg;
}

// Every fault model from src/sim/fault/ at once: Gilbert-Elliott burst
// loss, a crash-restart, stragglers and a transient partition, stacked on
// jitter and i.i.d. loss.  The burst chains consume a dedicated per-sender
// RNG stream advanced per STEP, so engine scheduling must not perturb it.
RunConfig faulty_cfg(std::uint64_t seed, RxPolicy rx) {
  RunConfig cfg;
  cfg.n = 120;
  cfg.logp = LogP::piz_daint();
  cfg.seed = seed;
  cfg.rx = rx;
  cfg.jitter_max = 1;
  cfg.drop_prob = 0.01;
  cfg.burst = BurstLoss::from_rate(0.05, 4);
  cfg.failures.online.push_back({60, 14});
  cfg.failures.restarts.push_back({25, 10, 26});
  cfg.stragglers.push_back({11, 3});
  cfg.stragglers.push_back({40, 2});
  cfg.partitions.push_back({12, 20, {33, 34, 35, 36}});
  return cfg;
}

AlgoConfig algo_cfg(Algo algo) {
  AlgoConfig acfg;
  acfg.T = 30;
  acfg.drain_extra = 2;
  if (algo == Algo::kOcg) acfg.ocg_corr_sends = 12;
  if (algo == Algo::kFcg) acfg.fcg_f = 2;
  return acfg;
}

class EnginesAgree
    : public ::testing::TestWithParam<
          std::tuple<Algo, std::uint64_t, RxPolicy>> {};

TEST_P(EnginesAgree, OnHarshNetwork) {
  const auto [algo, seed, rx] = GetParam();
  const RunConfig cfg = harsh_cfg(seed, rx);
  const AlgoConfig acfg = algo_cfg(algo);

  for (const int shards : {2, 3, 5})
    expect_engines_agree(algo, acfg, cfg, shards);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EnginesAgree,
    ::testing::Combine(
        ::testing::Values(Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg),
        ::testing::Values<std::uint64_t>(1, 7, 13),
        ::testing::Values(RxPolicy::kDrainAll, RxPolicy::kOnePerStep)));

// The same parity statement over the full fault stack - burst loss,
// crash-restart, stragglers, partition - with and without the
// ack/retransmit sublayer.  This is the determinism contract for the
// fault RNG streams: a fault outcome is a pure function of (config, seed),
// never of engine scheduling.
class EnginesAgreeOnFaults
    : public ::testing::TestWithParam<
          std::tuple<Algo, std::uint64_t, RxPolicy, bool>> {};

TEST_P(EnginesAgreeOnFaults, FullFaultStack) {
  const auto [algo, seed, rx, reliable] = GetParam();
  const RunConfig cfg = faulty_cfg(seed, rx);
  AlgoConfig acfg = algo_cfg(algo);
  acfg.reliable.enabled = reliable;

  expect_engines_agree(algo, acfg, cfg, 3);
  const RunMetrics serial = expect_engines_agree(algo, acfg, cfg, 4);
  if (reliable) {
    EXPECT_GT(serial.msgs_retrans, 0);  // bursts force retries
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EnginesAgreeOnFaults,
    ::testing::Combine(::testing::Values(Algo::kCcg, Algo::kFcg),
                       ::testing::Values<std::uint64_t>(3, 29),
                       ::testing::Values(RxPolicy::kDrainAll,
                                         RxPolicy::kOnePerStep),
                       ::testing::Bool()));

// Acceptance check for the fault layer: the canonically sorted JSONL trace
// of a run under every fault model at once - including kLost and kRestart
// events - is BYTE-IDENTICAL across engines and shard counts.
TEST(EngineParity, FaultTraceJsonlIsByteIdenticalAcrossEngines) {
  DiffCase c{Algo::kCcg, algo_cfg(Algo::kCcg),
             faulty_cfg(19, RxPolicy::kOnePerStep)};
  c.acfg.reliable.enabled = true;

  const std::string serial = observe(c, {EngineKind::kStepped, 1}).trace();
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"lost\""), std::string::npos);
  EXPECT_NE(serial.find("\"restart\""), std::string::npos);
  for (const int shards : {1, 2, 3, 5})
    EXPECT_EQ(serial, observe(c, {EngineKind::kSharded, shards}).trace())
        << shards;
}

// Node-level agreement: with record_node_detail every per-node coloring /
// delivery / completion step must match bit-for-bit across engines.
TEST(EngineParity, NodeDetailMatchesAcrossEngines) {
  RunConfig cfg = harsh_cfg(3, RxPolicy::kOnePerStep);
  cfg.record_node_detail = true;
  const AlgoConfig acfg = algo_cfg(Algo::kFcg);
  const RunMetrics serial =
      run_once(Algo::kFcg, acfg, cfg, {EngineKind::kStepped, 1});
  for (const int shards : {2, 3}) {
    const RunMetrics sh =
        run_once(Algo::kFcg, acfg, cfg, {EngineKind::kSharded, shards});
    SCOPED_TRACE(shards);
    EXPECT_EQ(serial.colored_at, sh.colored_at);
    EXPECT_EQ(serial.delivered_at, sh.delivered_at);
    EXPECT_EQ(serial.completed_at, sh.completed_at);
  }
}

using EvKey = std::tuple<Step, int, NodeId, NodeId, int>;

std::vector<EvKey> sorted_keys(const VectorTrace& t) {
  std::vector<EvKey> keys;
  keys.reserve(t.events().size());
  for (const auto& ev : t.events())
    keys.emplace_back(ev.step, static_cast<int>(ev.kind), ev.node, ev.peer,
                      static_cast<int>(ev.tag));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The sharded engine flushes per-shard trace buffers window by window, so
// its raw event order differs from the stepped engine's; the event
// MULTISET must match the serial trace exactly.
void expect_trace_multiset_matches(Algo algo, const RunConfig& base,
                                   int shards) {
  const AlgoConfig acfg = algo_cfg(algo);
  VectorTrace serial_trace, sharded_trace;
  RunConfig cfg = base;
  cfg.trace = &serial_trace;
  run_once(algo, acfg, cfg, {EngineKind::kStepped, 1});
  cfg.trace = &sharded_trace;
  run_once(algo, acfg, cfg, {EngineKind::kSharded, shards});
  EXPECT_FALSE(serial_trace.events().empty());
  EXPECT_EQ(sorted_keys(serial_trace), sorted_keys(sharded_trace));
}

TEST(EngineParity, CcgShardedTraceMatchesSerialMultiset) {
  expect_trace_multiset_matches(Algo::kCcg, harsh_cfg(11, RxPolicy::kDrainAll),
                                3);
}

TEST(EngineParity, OcgShardedTraceMatchesSerialMultiset) {
  expect_trace_multiset_matches(Algo::kOcg, harsh_cfg(2, RxPolicy::kDrainAll),
                                5);
}

// Strongest trace-parity statement: after canonical sorting, the JSONL
// serialization of a kOnePerStep run is BYTE-IDENTICAL across engines and
// shard counts.  (Raw emission order differs - per-shard buffers flushed
// per window - which is exactly what obs::canonical_sort factors out.)
TEST(EngineParity, CanonicalJsonlIsByteIdenticalAcrossEngines) {
  const DiffCase c{Algo::kFcg, algo_cfg(Algo::kFcg),
                   harsh_cfg(17, RxPolicy::kOnePerStep)};

  const std::string serial = observe(c, {EngineKind::kStepped, 1}).trace();
  EXPECT_FALSE(serial.empty());
  for (const int shards : {2, 3, 5})
    EXPECT_EQ(serial, observe(c, {EngineKind::kSharded, shards}).trace())
        << shards;
}

// The engines' self-profiles must agree on the callback counts (they run
// the same simulation), even though the wall-clock split is engine-specific.
TEST(EngineParity, ProfileCallbackCountsMatchAcrossEngines) {
  const AlgoConfig acfg = algo_cfg(Algo::kCcg);
  const RunConfig base = harsh_cfg(23, RxPolicy::kDrainAll);

  auto profiled = [&](EngineKind kind, int threads) {
    EngineProfile prof;
    RunConfig cfg = base;
    cfg.profile = &prof;
    run_once(Algo::kCcg, acfg, cfg, {kind, threads});
    return prof;
  };

  const EngineProfile serial = profiled(EngineKind::kStepped, 1);
  const EngineProfile sh = profiled(EngineKind::kSharded, 3);
  const EngineProfile sh5 = profiled(EngineKind::kSharded, 5);
  EXPECT_GT(serial.callbacks_receive, 0);
  EXPECT_GT(serial.callbacks_tick, 0);
  for (const EngineProfile* p : {&sh, &sh5}) {
    EXPECT_EQ(serial.callbacks_start, p->callbacks_start);
    EXPECT_EQ(serial.callbacks_receive, p->callbacks_receive);
    EXPECT_EQ(serial.callbacks_tick, p->callbacks_tick);
  }

  // Memory-plan accounting: every engine reports a positive per-node
  // footprint and the process peak RSS.
  for (const EngineProfile* p : {&serial, &sh, &sh5}) {
    EXPECT_GT(p->bytes_per_node, 0);
    EXPECT_GT(p->peak_rss_bytes, 0);
  }
  // Sharded-only substrate counters.
  EXPECT_EQ(sh.shards, 3);
  EXPECT_GT(sh.windows, 0);
  EXPECT_EQ(static_cast<int>(sh.shard_stats.size()), 3);
  EXPECT_GT(sh.boundary_msgs, 0);  // 3 shards on 150 nodes must cross

  // Delivery-calendar ledger: one event per undropped message, every
  // staged message drains, and both engines count the same traffic.
  EXPECT_GT(serial.events_scheduled, 0);
  EXPECT_EQ(serial.events_fired, serial.events_scheduled);
  EXPECT_GE(serial.queue_max_bucket, 1);
  for (const EngineProfile* p : {&sh, &sh5}) {
    EXPECT_EQ(p->events_scheduled, serial.events_scheduled);
    EXPECT_EQ(p->events_fired, serial.events_fired);
    EXPECT_GE(p->queue_max_bucket, 1);
  }
}

// Pinned model: both engines share one node store, one inbox and one send
// path, so stepped-vs-sharded parity alone cannot see a change to them.
// Three fixed configs - CCG on the full fault stack with spammers,
// corruptors and kOnePerStep; SBRB with equivocators and restarts; FCG with
// stragglers and online failures - must reproduce the 64-bit FNV-1a
// digests of the canonical JSONL trace and of the RunMetrics JSON recorded
// when the model was folded into src/sim/core/, on the stepped engine and
// on the sharded engine with 3 shards.  A digest change is a change to the
// simulated model: re-record the constants only for an intended one.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct PinnedRun {
  Algo algo;
  AlgoConfig acfg;
  RunConfig cfg;
  std::uint64_t trace_digest;
  std::uint64_t metrics_digest;
};

std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;

  AlgoConfig ccg = algo_cfg(Algo::kCcg);
  ccg.reliable.enabled = true;
  RunConfig ccg_cfg = faulty_cfg(41, RxPolicy::kOnePerStep);
  ccg_cfg.byzantine.nodes = {{70, ByzMode::kSpammer},
                             {90, ByzMode::kSpammer},
                             {100, ByzMode::kCorruptor},
                             {110, ByzMode::kCorruptor}};
  runs.push_back({Algo::kCcg, ccg, ccg_cfg, 0xe777564a0a716950ull,
                  0x3d7d9ba3d80ed3c2ull});

  AlgoConfig sbrb;
  sbrb.sbrb_eps = 1e-3;
  sbrb.sbrb_byz_frac = 0.15;
  RunConfig sbrb_cfg;
  sbrb_cfg.n = 160;
  sbrb_cfg.logp = LogP::piz_daint();
  sbrb_cfg.seed = 43;
  for (const NodeId i : {7, 31, 58, 77, 101, 133})
    sbrb_cfg.byzantine.nodes.push_back({i, ByzMode::kEquivocator});
  sbrb_cfg.failures.restarts = {{20, 4, 30}, {90, 12, 40}};
  runs.push_back({Algo::kSbrb, sbrb, sbrb_cfg, 0xf82671e6e032b024ull,
                  0x50ca1fe0e5bd97c3ull});

  RunConfig fcg_cfg = harsh_cfg(47, RxPolicy::kDrainAll);
  fcg_cfg.stragglers = {{12, 3}, {64, 2}, {99, 4}};
  fcg_cfg.failures.online.push_back({120, 30});
  runs.push_back({Algo::kFcg, algo_cfg(Algo::kFcg), fcg_cfg,
                  0x509f4993e14997b2ull, 0x2c1eca90541a071dull});
  return runs;
}

TEST(EngineParity, TraceAndMetricsDigestsMatchPinnedModel) {
  for (const PinnedRun& run : pinned_runs()) {
    ASSERT_EQ(config_error(run.cfg), "") << algo_name(run.algo);
    for (const auto& [kind, shards] :
         {std::pair{EngineKind::kStepped, 1},
          std::pair{EngineKind::kSharded, 3}}) {
      VectorTrace trace;
      RunConfig cfg = run.cfg;
      cfg.trace = &trace;
      const RunMetrics m = run_once(run.algo, run.acfg, cfg, {kind, shards});
      std::vector<TraceEvent> events = trace.events();
      obs::canonical_sort(events);
      SCOPED_TRACE(std::string(algo_name(run.algo)) + " on " +
                   engine_name(kind));
      EXPECT_EQ(fnv1a(obs::to_jsonl(events)), run.trace_digest);
      EXPECT_EQ(fnv1a(obs::to_json(m)), run.metrics_digest);
    }
  }
}

// Spot checks for the loss and receive-policy paths on the sharded engine.

TEST(EngineParity, ShardedEngineSupportsDropProb) {
  RunConfig cfg;
  cfg.n = 96;
  cfg.logp = LogP::unit();
  cfg.seed = 5;
  cfg.drop_prob = 0.15;
  const RunMetrics serial =
      expect_engines_agree(Algo::kCcg, algo_cfg(Algo::kCcg), cfg, 3);
  EXPECT_TRUE(serial.all_active_colored);  // CCG corrects through 15% loss
}

TEST(EngineParity, ShardedEngineSupportsOnePerStep) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::unit();
  cfg.seed = 9;
  cfg.rx = RxPolicy::kOnePerStep;
  expect_engines_agree(Algo::kGos, algo_cfg(Algo::kGos), cfg, 5);
}

// Clean-network agreement per protocol at n = 200, parallel (sharded) vs
// serial (stepped), over shard counts {1, 2, 3, 4, 5, 7} (from 3 shards on,
// trailing 64-node blocks run empty). The suite is instantiated as
// "Threads" after ExecConfig::threads, which carries the shard count.
RunConfig clean_cfg(NodeId n, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  return cfg;
}

AlgoConfig gossip_cfg(Step T, Step ocg_corr_sends = 0, int fcg_f = 1) {
  AlgoConfig acfg;
  acfg.T = T;
  acfg.ocg_corr_sends = ocg_corr_sends;
  acfg.fcg_f = fcg_f;
  return acfg;
}

class ParallelMatchesSerial
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ParallelMatchesSerial, Ccg) {
  const auto [shards, seed] = GetParam();
  expect_engines_agree(Algo::kCcg, gossip_cfg(14), clean_cfg(200, seed),
                       shards);
}

TEST_P(ParallelMatchesSerial, Ocg) {
  const auto [shards, seed] = GetParam();
  expect_engines_agree(Algo::kOcg, gossip_cfg(14, 8), clean_cfg(200, seed),
                       shards);
}

TEST_P(ParallelMatchesSerial, Fcg) {
  const auto [shards, seed] = GetParam();
  expect_engines_agree(Algo::kFcg, gossip_cfg(14), clean_cfg(200, seed),
                       shards);
}

TEST_P(ParallelMatchesSerial, FcgWithOnlineFailures) {
  const auto [shards, seed] = GetParam();
  RunConfig cfg = clean_cfg(200, seed);
  cfg.failures.online.push_back({17, 8});
  cfg.failures.online.push_back({91, 15});
  const RunMetrics m =
      expect_engines_agree(Algo::kFcg, gossip_cfg(14, 0, 2), cfg, shards);
  EXPECT_TRUE(m.all_or_nothing_delivery());
}

TEST_P(ParallelMatchesSerial, Gos) {
  const auto [shards, seed] = GetParam();
  expect_engines_agree(Algo::kGos, gossip_cfg(16), clean_cfg(200, seed),
                       shards);
}

TEST_P(ParallelMatchesSerial, Big) {
  const auto [shards, seed] = GetParam();
  expect_engines_agree(Algo::kBig, AlgoConfig{}, clean_cfg(200, seed),
                       shards);
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ParallelMatchesSerial,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7),
                       ::testing::Values<std::uint64_t>(3, 11)));

// The same per-protocol agreement across system sizes on 3 shards: n = 17
// fits one block, n = 64 exactly one, n = 200 spans two.
class ShardedMatchesSteppedBySize
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {};

TEST_P(ShardedMatchesSteppedBySize, Gos) {
  const auto [n, seed] = GetParam();
  expect_engines_agree(Algo::kGos, gossip_cfg(16), clean_cfg(n, seed), 3);
}

TEST_P(ShardedMatchesSteppedBySize, Ocg) {
  const auto [n, seed] = GetParam();
  expect_engines_agree(Algo::kOcg, gossip_cfg(14, 10), clean_cfg(n, seed), 3);
}

TEST_P(ShardedMatchesSteppedBySize, Ccg) {
  const auto [n, seed] = GetParam();
  expect_engines_agree(Algo::kCcg, gossip_cfg(14), clean_cfg(n, seed), 3);
}

TEST_P(ShardedMatchesSteppedBySize, Fcg) {
  const auto [n, seed] = GetParam();
  expect_engines_agree(Algo::kFcg, gossip_cfg(14), clean_cfg(n, seed), 3);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardedMatchesSteppedBySize,
    ::testing::Combine(::testing::Values<NodeId>(17, 64, 200),
                       ::testing::Values<std::uint64_t>(1, 5, 9)));

// --- Sleep contract beyond SBRB --------------------------------------------

// Tests-only protocol with several distinct wake steps.  Every node joins
// in on_start; node i acts every (period + i % 5) steps and once after it
// is first colored, sending one kGossip message per action once colored,
// and completes at `horizon`.  Every other tick is a no-op, which next_tick
// reports exactly.  With kHook = false the hook is hidden, so the engines
// tick the node every step: traces and metrics must not change.
template <bool kHook>
class NapNode {
 public:
  struct Params {
    Step period = 2;
    Step horizon = 48;
    std::atomic<std::int64_t>* ticks = nullptr;  ///< on_tick calls, all nodes
  };

  NapNode(const Params& p, NodeId self, NodeId n)
      : p_(p), self_(self), n_(n), period_(p.period + self % 5) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    ctx.activate();
    if (!ctx.is_root()) return;
    ctx.mark_colored();
    ctx.deliver();
    owed_ = true;
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message&) {
    if (ctx.colored()) return;
    ctx.mark_colored();
    ctx.deliver();
    owed_ = true;
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (p_.ticks != nullptr) p_.ticks->fetch_add(1, std::memory_order_relaxed);
    const Step now = ctx.now();
    if (now >= p_.horizon) {
      ctx.complete();
      return;
    }
    if (!owed_ && now % period_ != 0) return;
    owed_ = false;
    if (!ctx.colored()) return;
    Message m;
    m.tag = Tag::kGossip;
    m.time = now;
    ctx.send(ctx.rng().other_node(self_, n_), m);
  }

  Step next_tick(Step now) const
    requires kHook
  {
    if (owed_ || now >= p_.horizon) return now;
    return std::min(p_.horizon, (now + period_ - 1) / period_ * period_);
  }

 private:
  Params p_;
  NodeId self_;
  NodeId n_;
  Step period_;
  bool owed_ = false;
};

struct NapRun {
  Observed seen;
  std::int64_t callbacks_tick = 0;
  std::int64_t ticks_counted = 0;  ///< on_tick calls the nodes counted
};

/// Observe a NapNode run: stepped for `shards` == 0, else sharded.
template <bool kHook>
NapRun run_nap(RunConfig cfg, typename NapNode<kHook>::Params p, int shards) {
  std::atomic<std::int64_t> ticks{0};
  p.ticks = &ticks;
  EngineProfile prof;
  cfg.profile = &prof;
  const ExecConfig exec{
      shards == 0 ? EngineKind::kStepped : EngineKind::kSharded,
      std::max(shards, 1)};
  NapRun r{observe<NapNode<kHook>>(cfg, p, exec)};
  r.callbacks_tick = prof.callbacks_tick;
  r.ticks_counted = ticks.load();
  return r;
}

bool ends_at(const NapRun& r, Step t_end) {
  return r.seen.metrics.find("\"t_end\":" + std::to_string(t_end) + ",") !=
         std::string::npos;
}

RunConfig nap_cfg(RxPolicy rx, bool faults) {
  RunConfig cfg;
  cfg.n = 200;
  cfg.logp = LogP{.l_over_o = 3, .o_us = 1.0};
  cfg.seed = 31;
  cfg.rx = rx;
  if (faults) {
    // Nodes 9 and 14 act every 6 steps (at 12 and 18): both are asleep
    // when their crash comes, and node 9 sleeps past it (wake step 18).
    cfg.failures.online.push_back({9, 13});
    cfg.failures.restarts.push_back({14, 20, 30});
  }
  return cfg;
}

TEST(SleepContract, NapNodeMatchesAcrossEnginesAndHiddenHook) {
  for (const auto& [rx, faults] :
       {std::pair{RxPolicy::kDrainAll, false},
        std::pair{RxPolicy::kDrainAll, true},
        std::pair{RxPolicy::kOnePerStep, true}}) {
    SCOPED_TRACE(std::string(rx == RxPolicy::kOnePerStep ? "rx=one" : "drain") +
                 (faults ? " + crash/restart" : ""));
    const RunConfig cfg = nap_cfg(rx, faults);
    const NapRun stepped = run_nap<true>(cfg, {}, 0);
    ASSERT_FALSE(stepped.seen.events.empty());
    if (faults) {
      const std::string trace = stepped.seen.trace();
      EXPECT_NE(trace.find("\"fail\""), std::string::npos);
      EXPECT_NE(trace.find("\"restart\""), std::string::npos);
    }
    EXPECT_EQ(stepped.callbacks_tick, stepped.ticks_counted);

    // Hiding the hook changes how often on_tick runs, nothing else.
    for (const int shards : {0, 3}) {
      SCOPED_TRACE("hook hidden, shards=" + std::to_string(shards));
      const NapRun awake = run_nap<false>(cfg, {}, shards);
      expect_same_observation(stepped.seen, awake.seen, "hook hidden");
      EXPECT_EQ(awake.callbacks_tick, awake.ticks_counted);
      EXPECT_GT(awake.callbacks_tick, 2 * stepped.callbacks_tick);
    }

    for (const int shards : {1, 2, 3, 5, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const NapRun sh = run_nap<true>(cfg, {}, shards);
      expect_same_observation(stepped.seen, sh.seen, "sharded");
      EXPECT_EQ(stepped.callbacks_tick, sh.callbacks_tick);
      EXPECT_EQ(sh.callbacks_tick, sh.ticks_counted);
    }
  }
}

// Quiescence fast-forward: once the coloring sends drain, every node
// sleeps until the horizon 10^9 steps ahead and nothing is in flight, so
// the engines jump there instead of stepping.
TEST(SleepContract, QuiescentRunJumpsToTheNextWake) {
  RunConfig cfg = nap_cfg(RxPolicy::kDrainAll, false);
  cfg.n = 64;
  cfg.max_steps = 2'000'000'000;
  NapNode<true>::Params p;
  p.horizon = 1'000'000'000;
  p.period = 2 * p.horizon;  // no periodic sends: one send per coloring

  const auto t0 = std::chrono::steady_clock::now();
  const NapRun stepped = run_nap<true>(cfg, p, 0);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 0.5);
  EXPECT_TRUE(ends_at(stepped, p.horizon + 1));
  EXPECT_EQ(stepped.callbacks_tick, stepped.ticks_counted);
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const NapRun sh = run_nap<true>(cfg, p, shards);
    expect_same_observation(stepped.seen, sh.seen, "sharded");
    EXPECT_EQ(stepped.callbacks_tick, sh.callbacks_tick);
  }
}

// Lazy kills stay exact for sleepers: every node, root included, crashes
// while asleep with its wake step past max_steps.  The sharded engine caps
// a sleeper's wake at its crash step, so both engines end the run right
// after the last crash instead of running into max_steps.
TEST(SleepContract, CrashesOfSleepersEndTheRunOnTime) {
  RunConfig cfg = nap_cfg(RxPolicy::kDrainAll, false);
  cfg.n = 64;
  cfg.max_steps = 500'000'000;
  for (NodeId i = 0; i < cfg.n; ++i)
    cfg.failures.online.push_back({i, 1000 + i});
  NapNode<true>::Params p;
  p.horizon = 1'000'000'000;
  p.period = 2 * p.horizon;

  const NapRun stepped = run_nap<true>(cfg, p, 0);
  EXPECT_TRUE(ends_at(stepped, 1000 + cfg.n));
  EXPECT_NE(stepped.seen.metrics.find("\"hit_max_steps\":false"),
            std::string::npos);
  for (const int shards : {1, 2, 5}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same_observation(stepped.seen, run_nap<true>(cfg, p, shards).seen,
                            "sharded");
  }
}

}  // namespace
}  // namespace cg
