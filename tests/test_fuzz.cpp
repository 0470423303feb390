// Randomized configuration fuzzing: hundreds of random universes (size,
// LogP, gossip length, failures, jitter, rx policy) checked against the
// universal invariants, and the differential generator's fault stacks
// (differential.hpp) with one field pushed out of range, each of which
// config_error() must reject.  Any violation prints the reproducing config.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "differential.hpp"
#include "harness/runner.hpp"

namespace cg {
namespace {

struct FuzzConfig {
  Algo algo;
  NodeId n;
  Step l_over_o;
  Step T;
  int f;
  int pre_failures;
  int online_failures;
  Step jitter;
  RxPolicy rx;
  std::uint64_t seed;

  std::string describe() const {
    std::ostringstream os;
    os << algo_name(algo) << " n=" << n << " L/O=" << l_over_o << " T=" << T
       << " f=" << f << " pre=" << pre_failures << " online=" << online_failures
       << " jitter=" << jitter
       << " rx=" << (rx == RxPolicy::kDrainAll ? "drain" : "one")
       << " seed=" << seed;
    return os.str();
  }
};

FuzzConfig random_config(Xoshiro256& rng, bool with_failures) {
  FuzzConfig c{};
  const Algo algos[] = {Algo::kGos, Algo::kOcg,      Algo::kCcg, Algo::kFcg,
                        Algo::kBig, Algo::kOcgChain, Algo::kOpt};
  c.algo = algos[rng.bounded(7)];
  c.n = static_cast<NodeId>(2 + rng.bounded(180));
  c.l_over_o = rng.uniform(0, 3);
  c.T = rng.uniform(0, 25);
  c.f = static_cast<int>(rng.uniform(0, 3));
  if (with_failures) {
    c.pre_failures = static_cast<int>(rng.bounded(
        static_cast<std::uint64_t>(std::max<NodeId>(1, c.n / 4))));
    c.online_failures = static_cast<int>(
        rng.bounded(static_cast<std::uint64_t>(c.f) + 1));
    if (c.pre_failures + c.online_failures >= c.n) {
      c.pre_failures = 0;
      c.online_failures = 0;
    }
  }
  c.jitter = rng.uniform(0, 2);
  c.rx = rng.bounded(2) == 0 ? RxPolicy::kDrainAll : RxPolicy::kOnePerStep;
  c.seed = rng.next();
  return c;
}

void check_invariants(const FuzzConfig& c, const RunMetrics& m) {
  SCOPED_TRACE(c.describe());
  // Universal: termination, accounting, ordering.
  ASSERT_FALSE(m.hit_max_steps);
  // Online failures scheduled past the run's end never fire, so active
  // count sits between (n - pre - online) and (n - pre).
  ASSERT_GE(m.n_active, c.n - c.pre_failures - c.online_failures);
  ASSERT_LE(m.n_active, c.n - c.pre_failures);
  ASSERT_LE(m.n_colored, m.n_active);
  ASSERT_LE(m.n_delivered, m.n_colored);
  ASSERT_GE(m.msgs_total, 0);
  // FCG safety holds at any point of this sweep (online <= f).
  if (c.algo == Algo::kFcg) {
    ASSERT_TRUE(m.all_or_nothing_delivery());
  }
  // CCG/FCG reach every active node without online failures (jitter
  // included: their stop rules are order-insensitive).
  if (c.online_failures == 0 &&
      (c.algo == Algo::kCcg || c.algo == Algo::kFcg)) {
    ASSERT_TRUE(m.all_active_colored);
  }
  // OPT is NOT fault-tolerant (a dead relay orphans its subtree - the
  // paper's Fig. 7b remark), so require it only on clean universes.
  if (c.algo == Algo::kOpt && c.pre_failures == 0 &&
      c.online_failures == 0) {
    ASSERT_TRUE(m.all_active_colored);
  }
  if (c.algo == Algo::kBig && c.pre_failures == 0 &&
      c.online_failures == 0) {
    ASSERT_TRUE(m.all_active_colored);
  }
}

RunMetrics run_fuzz(const FuzzConfig& c) {
  RunConfig cfg;
  cfg.n = c.n;
  cfg.logp = LogP{.l_over_o = c.l_over_o, .o_us = 1.0};
  cfg.seed = c.seed;
  cfg.rx = c.rx;
  cfg.jitter_max = c.jitter;
  if (c.pre_failures > 0 || c.online_failures > 0) {
    Xoshiro256 frng(c.seed ^ 0xF417);
    cfg.failures = FailureSchedule::random(c.n, c.pre_failures,
                                           c.online_failures,
                                           c.T + 6 * (c.l_over_o + 2) + 20,
                                           frng);
  }
  AlgoConfig acfg;
  acfg.T = c.T;
  acfg.ocg_corr_sends = 2 * c.n;  // full coverage budget for OCG/chain
  acfg.fcg_f = c.f;
  return run_once(c.algo, acfg, cfg);
}

TEST(Fuzz, FailureFreeUniverses) {
  Xoshiro256 rng(20260706);
  for (int i = 0; i < 250; ++i) {
    const FuzzConfig c = random_config(rng, /*with_failures=*/false);
    check_invariants(c, run_fuzz(c));
  }
}

TEST(Fuzz, FailingUniverses) {
  Xoshiro256 rng(424242);
  for (int i = 0; i < 250; ++i) {
    FuzzConfig c = random_config(rng, /*with_failures=*/true);
    if (c.algo == Algo::kBig) {
      // BIG only guarantees delivery up to log2(n)-1 failures; restrict
      // its fuzzing to the failure-free invariants.
      c.pre_failures = 0;
      c.online_failures = 0;
    }
    check_invariants(c, run_fuzz(c));
  }
}

// --- Drawn fault stacks against config_error() ------------------------------

/// The lowest non-root node no crash, Byzantine or straggler list names.
NodeId spare_node(const RunConfig& cfg) {
  std::set<NodeId> used = {cfg.root};
  for (const NodeId i : cfg.failures.pre_failed) used.insert(i);
  for (const auto& of : cfg.failures.online) used.insert(of.node);
  for (const auto& r : cfg.failures.restarts) used.insert(r.node);
  for (const auto& bn : cfg.byzantine.nodes) used.insert(bn.node);
  for (const auto& s : cfg.stragglers) used.insert(s.node);
  NodeId i = 0;
  while (used.count(i) != 0) ++i;
  return i;
}

/// One field out of range, as validate.cpp checks it, and the words its
/// error must contain.  `spare` is an otherwise unlisted node.
struct Mutation {
  const char* name;
  const char* error;
  void (*apply)(RunConfig& cfg, NodeId spare, std::uint64_t seed);
};

const Mutation kMutations[] = {
    {"drop > 1", "drop_prob",
     [](RunConfig& cfg, NodeId, std::uint64_t) { cfg.drop_prob = 1.25; }},
    {"burst probability > 1", "burst-loss probabilities",
     [](RunConfig& cfg, NodeId, std::uint64_t) { cfg.burst.loss_bad = 1.5; }},
    {"node id >= n", "out of range",
     [](RunConfig& cfg, NodeId, std::uint64_t seed) {
       const NodeId n = cfg.n;
       switch (seed % 6) {
         case 0: cfg.failures.pre_failed.push_back(n); break;
         case 1: cfg.failures.online.push_back({n, 5}); break;
         case 2: cfg.failures.restarts.push_back({n, 5, 9}); break;
         case 3: cfg.byzantine.nodes.push_back({n, ByzMode::kSilent}); break;
         case 4: cfg.stragglers.push_back({n, 2}); break;
         default: cfg.partitions.push_back({2, 5, {n}}); break;
       }
     }},
    {"node failing twice", "scheduled to fail twice",
     [](RunConfig& cfg, NodeId spare, std::uint64_t) {
       cfg.failures.pre_failed.push_back(spare);
       cfg.failures.online.push_back({spare, 5});
     }},
    {"partition until <= from", "from < until",
     [](RunConfig& cfg, NodeId spare, std::uint64_t) {
       cfg.partitions.push_back({7, 7, {spare}});
     }},
    {"byzantine node also crash-scheduled", "both byzantine",
     [](RunConfig& cfg, NodeId spare, std::uint64_t) {
       cfg.failures.online.push_back({spare, 5});
       cfg.byzantine.nodes.push_back({spare, ByzMode::kSilent});
     }},
    {"straggler factor < 1", "straggler factor",
     [](RunConfig& cfg, NodeId spare, std::uint64_t) {
       cfg.stragglers.push_back({spare, 0});
     }},
    {"negative jitter", "jitter_max",
     [](RunConfig& cfg, NodeId, std::uint64_t) { cfg.jitter_max = -1; }},
};

TEST(Fuzz, DrawnCasesWithOneFieldOutOfRangeAreRejected) {
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const DiffCase c = draw_case(seed);
    SCOPED_TRACE(describe(c));
    ASSERT_EQ(config_error(c.cfg), "");
    const NodeId spare = spare_node(c.cfg);
    for (const Mutation& mut : kMutations) {
      RunConfig bad = c.cfg;
      mut.apply(bad, spare, seed);
      EXPECT_NE(config_error(bad).find(mut.error), std::string::npos)
          << mut.name << ": got \"" << config_error(bad) << '"';
    }
  }
}

// Unmutated draws (seeds past the differential sweep's) run to the end on
// both engines with equal metrics and consistent node accounting.
TEST(Fuzz, DrawnCasesRunToTheEndOnBothEngines) {
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    const DiffCase c = draw_case(seed);
    SCOPED_TRACE(describe(c));
    const RunMetrics m =
        run_once(c.algo, c.acfg, c.cfg, {EngineKind::kStepped, 1});
    EXPECT_FALSE(m.hit_max_steps);
    EXPECT_LE(m.n_colored, m.n_active);
    EXPECT_LE(m.n_active, m.n_total);
    EXPECT_EQ(obs::to_json(m),
              obs::to_json(run_once(c.algo, c.acfg, c.cfg,
                                    {EngineKind::kSharded, 2})));
  }
}

}  // namespace
}  // namespace cg
