// One differential harness for the engine-parity suites: a random
// fault-stack generator (draw_case), an observer that reduces one run to
// four comparable observations (observe), and the check that holds every
// engine and shard count to the stepped reference (expect_differential).
//
// The contract it checks: a run is a pure function of (RunConfig,
// AlgoConfig).  The stepped engine and the sharded engine at any shard
// count must produce byte-identical canonical traces, RunMetrics (per-node
// detail included), engine-invariant telemetry and trace samples, under
// any stack of jitter, i.i.d. and burst loss, crashes, restarts,
// stragglers, partitions, the reliable sublayer and Byzantine nodes.  For
// SBRB the naive SbrbRefNode (sbrb_ref_node.hpp) must match the
// production SbrbNode on every engine checked.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "obs/report.hpp"
#include "obs/sampling_sink.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sinks.hpp"
#include "sbrb_ref_node.hpp"
#include "sim/engine.hpp"
#include "sim/fault/validate.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/trace.hpp"

namespace cg {

/// One run to compare: the algorithm, its knobs and the system it runs on.
/// `seed` is the sweep seed a drawn case came from (0 for hand-built ones).
struct DiffCase {
  Algo algo = Algo::kCcg;
  AlgoConfig acfg;
  RunConfig cfg;
  std::uint64_t seed = 0;
};

inline std::string describe(const DiffCase& c) {
  std::string s = "seed=" + std::to_string(c.seed) + " algo=" +
                  algo_name(c.algo) + " n=" + std::to_string(c.cfg.n);
  if (!c.cfg.byzantine.nodes.empty())
    s += " byz=" + std::to_string(c.cfg.byzantine.nodes.size()) + "x" +
         byz_mode_name(c.cfg.byzantine.nodes.front().mode);
  return s;
}

inline constexpr std::array kDiffFamilies{Algo::kGos, Algo::kOcg, Algo::kCcg,
                                          Algo::kFcg, Algo::kSbrb};

/// The two extra shard counts case `seed` is checked on: every pair drawn
/// from {2, 3, 4, 5, 8}, rotated so that any 50 consecutive seeds run each
/// family (seed % 5) on each pair.
inline std::array<int, 2> shard_pair(std::uint64_t seed) {
  static constexpr std::array<std::array<int, 2>, 10> kPairs{{{2, 3}, {4, 5},
      {8, 2}, {3, 4}, {5, 8}, {2, 4}, {3, 5}, {4, 8}, {2, 5}, {3, 8}}};
  return kPairs[(seed / kDiffFamilies.size()) % kPairs.size()];
}

/// A random fault stack for sweep seed `seed`: n in [40, 160], either LogP
/// preset and rx policy, jitter, i.i.d. and burst loss, pre-failed, online
/// and restarting nodes, stragglers, a partition, on about half the cases
/// 1-5 Byzantine nodes of one mode (never the root, never crash-scheduled),
/// and the reliable sublayer on or off for the gossip families.  The family
/// is seed % 5.  Every case passes config_error().
inline DiffCase draw_case(std::uint64_t seed) {
  std::mt19937_64 gen(0x9E3779B97F4A7C15ull * (seed + 1));
  auto pick = [&](int lo, int hi) {  // inclusive
    return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
  };

  DiffCase c;
  c.seed = seed;
  c.algo = kDiffFamilies[seed % kDiffFamilies.size()];
  RunConfig& cfg = c.cfg;
  cfg.n = pick(40, 160);
  cfg.logp = (pick(0, 1) != 0) ? LogP::piz_daint() : LogP::unit();
  cfg.seed = seed * 7919u + 17u;
  cfg.rx = (pick(0, 1) != 0) ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
  cfg.jitter_max = pick(0, 2);
  cfg.drop_prob = 0.01 * pick(0, 3);
  if (pick(0, 1) != 0)
    cfg.burst = BurstLoss::from_rate(0.01 * pick(2, 6), pick(2, 5));

  // config_error() rejects a node failing twice, a Byzantine node that is
  // also crash-scheduled and duplicate straggler / partition listings, so
  // draw distinct non-root nodes per constraint set.
  auto fresh_node = [&](std::set<NodeId>& used) {
    for (;;) {
      const auto i = static_cast<NodeId>(pick(1, cfg.n - 1));
      if (used.insert(i).second) return i;
    }
  };
  std::set<NodeId> faulty, straggling, partitioned;
  for (int k = pick(0, 2); k > 0; --k)
    cfg.failures.pre_failed.push_back(fresh_node(faulty));
  for (int k = pick(0, 2); k > 0; --k)
    cfg.failures.online.push_back(
        {fresh_node(faulty), static_cast<Step>(pick(3, 60))});
  if (pick(0, 1) != 0) {
    const Step down = static_cast<Step>(pick(5, 40));
    cfg.failures.restarts.push_back(
        {fresh_node(faulty), down, down + static_cast<Step>(pick(1, 10))});
  }
  for (int k = pick(0, 2); k > 0; --k)
    cfg.stragglers.push_back(
        {fresh_node(straggling), static_cast<Step>(pick(2, 4))});
  if (pick(0, 1) != 0) {
    PartitionWindow pw;
    pw.from = static_cast<Step>(pick(2, 20));
    pw.until = pw.from + static_cast<Step>(pick(2, 15));
    for (int k = pick(1, 4); k > 0; --k)
      pw.members.push_back(fresh_node(partitioned));
    cfg.partitions.push_back(pw);
  }
  if (pick(0, 1) != 0) {
    const auto mode = static_cast<ByzMode>(pick(0, kByzModeCount - 1));
    for (int k = pick(1, 5); k > 0; --k)
      cfg.byzantine.nodes.push_back({fresh_node(faulty), mode});
  }

  // The knobs the parity suites have always used, at both gossip lengths.
  const bool long_gossip = pick(0, 1) != 0;
  AlgoConfig& acfg = c.acfg;
  acfg.T = long_gossip ? 30 : 24;
  acfg.drain_extra = 2;
  if (c.algo == Algo::kOcg) acfg.ocg_corr_sends = long_gossip ? 12 : 10;
  if (c.algo == Algo::kFcg) acfg.fcg_f = 2;
  if (c.algo == Algo::kSbrb) {
    acfg.sbrb_eps = 1e-3;
    acfg.sbrb_byz_frac = 0.15;
  } else {
    acfg.reliable.enabled = pick(0, 1) != 0;
  }
  return c;
}

/// One run reduced to what the engines must agree on.  The trace is kept
/// as the canonically sorted events, which obs::to_jsonl renders one line
/// per event: comparing events is the same check as comparing the JSONL,
/// and rendering every run's JSONL cost most of the sweep's time.
struct Observed {
  std::vector<TraceEvent> events;  ///< canonically sorted trace
  std::string metrics;      ///< RunMetrics JSON + per-node step detail
  std::string fingerprint;  ///< Telemetry::invariant_fingerprint()
  std::string sample;       ///< SamplingTraceSink sample (64 events), JSONL

  /// The canonical JSONL trace.
  std::string trace() const { return obs::to_jsonl(events); }
};

namespace diff_detail {

inline void append_steps(std::string& out, const std::vector<Step>& steps) {
  out += '\n';
  for (const Step s : steps) out += std::to_string(s) + ',';
}

/// One run of `run(cfg)` through a TeeTraceSink (full trace + sampler) with
/// telemetry and record_node_detail on.  A profile in `cfg` is kept.
template <class Run>
Observed observe_run(RunConfig cfg, Run&& run) {
  VectorTrace trace;
  obs::SamplingTraceSink sampler(cfg.seed, 64);
  obs::TeeTraceSink tee;
  tee.add(&trace);
  tee.add(&sampler);
  Telemetry tel;
  cfg.trace = &tee;
  cfg.telemetry = &tel;
  cfg.record_node_detail = true;
  const RunMetrics m = run(static_cast<const RunConfig&>(cfg));

  Observed o;
  o.events = trace.events();
  obs::canonical_sort(o.events);
  o.metrics = obs::to_json(m);
  append_steps(o.metrics, m.colored_at);
  append_steps(o.metrics, m.delivered_at);
  append_steps(o.metrics, m.completed_at);
  o.fingerprint = tel.invariant_fingerprint();
  o.sample = obs::to_jsonl(sampler.sample());
  return o;
}

/// "" when equal, else the first differing event of `a` and `b`.
inline std::string first_diff(const std::vector<TraceEvent>& a,
                              const std::vector<TraceEvent>& b) {
  if (a == b) return {};
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const auto line = [at](const std::vector<TraceEvent>& v) {
    return at < v.size() ? obs::to_jsonl(v[at]) : std::string("(end)");
  };
  return "first difference at event " + std::to_string(at) + ":\n  want: " +
         line(a) + "\n  got:  " + line(b);
}

}  // namespace diff_detail

/// Run `c` once on `exec` and observe it.
inline Observed observe(const DiffCase& c, const ExecConfig& exec) {
  return diff_detail::observe_run(c.cfg, [&](const RunConfig& cfg) {
    return run_once(c.algo, c.acfg, cfg, exec);
  });
}

/// The same observation for any protocol type, on an engine built directly
/// (bypassing the runner's Algo dispatch).
template <class Node>
Observed observe(const RunConfig& base, const typename Node::Params& p,
                 const ExecConfig& exec) {
  return diff_detail::observe_run(base, [&](const RunConfig& cfg) {
    return exec.engine == EngineKind::kStepped
               ? Engine<Node>(cfg, p).run()
               : ShardedEngine<Node>(cfg, p, exec.threads).run();
  });
}

/// All four parts of `got` equal `want`'s; `label` names the run.
inline void expect_same_observation(const Observed& want, const Observed& got,
                                    const std::string& label) {
  EXPECT_EQ(diff_detail::first_diff(want.events, got.events), "")
      << label << " trace";
  EXPECT_EQ(want.metrics, got.metrics) << label << " metrics";
  EXPECT_EQ(want.fingerprint, got.fingerprint) << label << " telemetry";
  EXPECT_EQ(want.sample, got.sample) << label << " sample";
}

/// The differential check: the stepped run is the reference; sharded/1 and
/// sharded at shard_pair(c.seed) must reproduce all four parts, and an SBRB
/// case also runs SbrbRefNode on each of those engines.
inline void expect_differential(const DiffCase& c) {
  SCOPED_TRACE(describe(c));
  ASSERT_EQ(config_error(c.cfg), "");
  const Observed ref = observe(c, {EngineKind::kStepped, 1});
  ASSERT_FALSE(ref.events.empty());
  ASSERT_FALSE(ref.fingerprint.empty());
  ASSERT_FALSE(ref.sample.empty());

  // The adversary leaves its mark on the protocols that forward what they
  // receive (GOS/OCG nodes may finish before a Byzantine node sends).
  if (!c.cfg.byzantine.nodes.empty() && c.algo != Algo::kGos &&
      c.algo != Algo::kOcg) {
    const ByzMode mode = c.cfg.byzantine.nodes.front().mode;
    const auto marked = [&](TraceEvent::Kind kind) {
      return std::any_of(
          ref.events.begin(), ref.events.end(),
          [kind](const TraceEvent& e) { return e.kind == kind; });
    };
    if (mode == ByzMode::kEquivocator) {
      EXPECT_TRUE(marked(TraceEvent::Kind::kEquivocated));
    }
    if (mode == ByzMode::kCorruptor || mode == ByzMode::kSpammer) {
      EXPECT_TRUE(marked(TraceEvent::Kind::kForged));
    }
  }

  SbrbNode::Params sbrb;
  sbrb.s = sbrb_samples(c.cfg.n, c.acfg.sbrb_eps, c.acfg.sbrb_byz_frac);
  sbrb.deadline = sbrb_deadline(sbrb.s, c.cfg.logp);
  const auto [a, b] = shard_pair(c.seed);
  for (const ExecConfig& exec : {ExecConfig{EngineKind::kStepped, 1},
                                 ExecConfig{EngineKind::kSharded, 1},
                                 ExecConfig{EngineKind::kSharded, a},
                                 ExecConfig{EngineKind::kSharded, b}}) {
    const std::string label = std::string(engine_name(exec.engine)) + "/" +
                              std::to_string(exec.threads);
    if (exec.engine == EngineKind::kSharded)
      expect_same_observation(ref, observe(c, exec), label);
    if (c.algo == Algo::kSbrb)
      expect_same_observation(ref, observe<SbrbRefNode>(c.cfg, sbrb, exec),
                              "SbrbRefNode on " + label);
  }
}

}  // namespace cg
