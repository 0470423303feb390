// Trial-farm runtime: work-stealing pool semantics, engine-reuse parity,
// the zero-alloc steady-state contract, and the determinism guarantee
// (farm output byte-identical for every thread count / pool shape).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "alloc_counter.hpp"
#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "obs/report.hpp"
#include "runtime/thread_pool.hpp"

namespace cg {
namespace {

// --- ThreadPool semantics --------------------------------------------------

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(resolve_threads(0), resolve_threads(-3));
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(5), 5);
}

TEST(ThreadPool, ManySmallChunksCoverEveryIndexOnce) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> calls{0};
  pool.parallel_for(10000, 1,
                    [&](std::int64_t b, std::int64_t e, int /*slot*/) {
                      for (std::int64_t i = b; i < e; ++i)
                        sum.fetch_add(i, std::memory_order_relaxed);
                      calls.fetch_add(1, std::memory_order_relaxed);
                    });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
  EXPECT_EQ(calls.load(), 10000);
}

TEST(ThreadPool, ChunkBoundariesRespected) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> covered{0};
  pool.parallel_for(1000, 64,
                    [&](std::int64_t b, std::int64_t e, int /*slot*/) {
                      EXPECT_EQ(b % 64, 0);
                      EXPECT_LE(e - b, 64);
                      covered.fetch_add(e - b, std::memory_order_relaxed);
                    });
  EXPECT_EQ(covered.load(), 1000);
}

TEST(ThreadPool, NestedSubmitRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> inner{0};
  std::atomic<std::int64_t> outer{0};
  pool.parallel_for(8, 1, [&](std::int64_t b, std::int64_t e, int /*slot*/) {
    // A nested parallel_for from inside pool work must not deadlock; it
    // runs inline on the calling worker with slot 0.
    pool.parallel_for(16, 4,
                      [&](std::int64_t b2, std::int64_t e2, int slot2) {
                        EXPECT_EQ(slot2, 0);
                        inner.fetch_add(e2 - b2, std::memory_order_relaxed);
                      });
    outer.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8 * 16);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [&](std::int64_t b, std::int64_t, int) {
                          if (b == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  std::atomic<std::int64_t> n{0};
  pool.parallel_for(100, 1, [&](std::int64_t b, std::int64_t e, int) {
    n.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, ParallelismCapLimitsSlots) {
  ThreadPool pool(8);
  std::atomic<int> max_slot{0};
  pool.parallel_for(2000, 1, /*parallelism=*/2,
                    [&](std::int64_t, std::int64_t, int slot) {
                      int cur = max_slot.load(std::memory_order_relaxed);
                      while (slot > cur &&
                             !max_slot.compare_exchange_weak(cur, slot)) {
                      }
                    });
  EXPECT_LT(max_slot.load(), 2);
}

TEST(ThreadPool, TinyCountRunsInlineWithSlotZero) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(3, 8, [&](std::int64_t b, std::int64_t e, int slot) {
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EnsureThreadsGrows) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  pool.ensure_threads(3);
  EXPECT_EQ(pool.threads(), 3);
  pool.ensure_threads(2);  // never shrinks
  EXPECT_EQ(pool.threads(), 3);
  std::atomic<std::int64_t> n{0};
  pool.parallel_for(100, 1, [&](std::int64_t b, std::int64_t e, int) {
    n.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 100);
}

// --- Determinism contract --------------------------------------------------

TrialSpec faulty_spec() {
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.acfg.T = 16;
  spec.n = 96;
  spec.logp = LogP::unit();
  spec.seed = 1234;
  spec.trials = 48;
  spec.jitter_max = 1;
  spec.drop_prob = 0.02;
  spec.pre_failures = 2;
  spec.online_failures = 1;
  spec.restarts = 1;
  spec.stragglers = 1;
  spec.partition_nodes = 4;
  return spec;
}

TEST(TrialFarm, ParityAcrossThreadCounts) {
  TrialSpec spec = faulty_spec();
  spec.threads = 1;
  const TrialAggregate a1 = run_trials(spec);
  spec.threads = 2;
  const TrialAggregate a2 = run_trials(spec);
  spec.threads = 8;
  const TrialAggregate a8 = run_trials(spec);

  // Byte-identical report JSON: the farm absorbs per-trial results in
  // trial order regardless of which worker ran which trial, so even the
  // FP-sensitive Welford summaries and raw sample orderings must match.
  const std::string j1 = obs::to_json(a1);
  EXPECT_EQ(j1, obs::to_json(a2));
  EXPECT_EQ(j1, obs::to_json(a8));
  EXPECT_EQ(a1.t_complete.raw(), a8.t_complete.raw());
  EXPECT_EQ(a1.t_last_colored.raw(), a8.t_last_colored.raw());
  EXPECT_EQ(a1.trials, a8.trials);
}

TEST(TrialFarm, AutoThreadsMatchesExplicit) {
  TrialSpec spec = faulty_spec();
  spec.trials = 24;
  spec.threads = 0;  // auto-detect
  const TrialAggregate aauto = run_trials(spec);
  spec.threads = 1;
  const TrialAggregate a1 = run_trials(spec);
  EXPECT_EQ(obs::to_json(aauto), obs::to_json(a1));
}

TEST(TrialFarm, CampaignParityAcrossThreadCounts) {
  CampaignConfig cfg;
  cfg.n = 48;
  cfg.logp = LogP::unit();
  cfg.seed = 77;
  cfg.trials = 12;
  AlgoConfig base;
  base.T = 14;
  const auto entries = default_entries(Algo::kCcg, base);
  auto scenarios = default_fault_scenarios();
  scenarios.resize(5);  // clean, losses, jitter, crash: enough shapes

  cfg.threads = 1;
  const CampaignResult r1 = run_campaign(cfg, scenarios, entries);
  cfg.threads = 5;
  const CampaignResult r5 = run_campaign(cfg, scenarios, entries);
  ASSERT_EQ(r1.cells.size(), r5.cells.size());
  EXPECT_EQ(obs::to_json(r1), obs::to_json(r5));
  EXPECT_EQ(r1.failed_cells, r5.failed_cells);
}

// --- Engine reuse parity ---------------------------------------------------

// Every engine the EngineCache can hold, in an order that switches the
// engine kind and then the shard count.
const ExecConfig kExecs[] = {
    {EngineKind::kStepped, 1},
    {EngineKind::kSharded, 1},
    {EngineKind::kSharded, 3},
};

TEST(TrialFarm, WorkspaceMatchesFreshEngine) {
  TrialSpec spec = faulty_spec();
  TrialWorkspace ws;  // one workspace across every engine switch
  for (const ExecConfig& exec : kExecs) {
    spec.exec = exec;
    for (int t = 0; t < 16; ++t) {
      const RunConfig rcfg = trial_run_config(spec, t);
      const RunMetrics fresh = run_once(spec.algo, spec.acfg, rcfg, exec);
      const RunMetrics reused = ws.run(spec, t);
      EXPECT_EQ(obs::to_json(fresh), obs::to_json(reused))
          << engine_name(exec.engine) << "/" << exec.threads << " trial "
          << t;
      EXPECT_EQ(ws.config().seed, rcfg.seed);
    }
  }
}

TEST(TrialFarm, WorkspaceSurvivesAlgoSwitch) {
  TrialSpec ccg = faulty_spec();
  TrialSpec fcg = faulty_spec();
  fcg.algo = Algo::kFcg;
  fcg.acfg.fcg_f = 1;
  TrialWorkspace ws;
  TrialSpec* seq[] = {&ccg, &fcg, &ccg, &fcg, &ccg};
  int t = 0;
  // Algorithm switches on one engine, then (across the outer loop) engine
  // and shard-count switches with the node type held.
  for (const ExecConfig& exec : kExecs) {
    for (TrialSpec* spec : seq) {
      spec->exec = exec;
      const RunConfig rcfg = trial_run_config(*spec, t);
      const RunMetrics fresh = run_once(spec->algo, spec->acfg, rcfg, exec);
      const RunMetrics reused = ws.run(*spec, t);
      EXPECT_EQ(obs::to_json(fresh), obs::to_json(reused))
          << engine_name(exec.engine) << "/" << exec.threads << " leg " << t;
      ++t;
    }
  }
}

// --- run_trials is the one-cell campaign -----------------------------------

TEST(TrialFarm, RunTrialsIsOneCellCampaign) {
  CampaignConfig cfg;
  cfg.n = 96;
  cfg.logp = LogP::unit();
  cfg.seed = 1234;
  cfg.trials = 24;
  FaultScenario sc;
  sc.name = "faulty";
  static_cast<FaultKnobs&>(sc) = faulty_spec();
  CampaignEntry entry;
  entry.label = "CCG";
  entry.algo = Algo::kCcg;
  entry.acfg.T = 16;
  entry.guarantee = Guarantee::kNone;
  for (const int threads : {1, 4}) {
    cfg.threads = threads;
    const CampaignResult r = run_campaign(cfg, {sc}, {entry});
    ASSERT_EQ(r.cells.size(), 1u);
    const TrialSpec spec = campaign_trial_spec(cfg, sc, entry);
    EXPECT_EQ(obs::to_json(run_trials(spec)), obs::to_json(r.cells[0].agg))
        << "threads " << threads;
  }
}

// --- Zero-alloc steady state -----------------------------------------------

#if CG_ALLOC_COUNTING

TrialSpec clean_spec() {
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.acfg.T = 14;
  spec.n = 128;
  spec.logp = LogP::unit();
  spec.seed = 9;
  return spec;
}

// Warm pass, then a replay of the same trials on one workspace, on the
// stepped engine and on the sharded engine at one shard: the replay must
// reuse every buffer (slabs, calendar slots, shard state, scratch).
void expect_zero_alloc_replay(TrialSpec spec) {
  for (const ExecConfig exec : {ExecConfig{EngineKind::kStepped, 1},
                                ExecConfig{EngineKind::kSharded, 1}}) {
    SCOPED_TRACE(engine_name(exec.engine));
    spec.exec = exec;
    TrialWorkspace ws;
    for (int t = 0; t < 32; ++t) ws.run(spec, t);
    const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int t = 0; t < 32; ++t) ws.run(spec, t);
    const std::int64_t delta =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(delta, 0) << "per-trial heap allocations regressed";
  }
}

TEST(TrialFarm, WorkspaceZeroAllocSteadyState) {
  expect_zero_alloc_replay(clean_spec());
}

TEST(TrialFarm, SbrbWorkspaceZeroAllocSteadyState) {
  // SBRB rides the same contract: SbrbNode::reset_for_run() preserves the
  // capacity of its subscriber lists and send-staging slabs, so replayed
  // clean-network trials touch no heap (the point of the flat sample
  // arrays + compact Staged entries - see docs/PERF.md §7).
  TrialSpec spec = clean_spec();
  spec.algo = Algo::kSbrb;
  spec.acfg.sbrb_eps = 1e-3;
  spec.acfg.sbrb_byz_frac = 0.1;
  expect_zero_alloc_replay(spec);
}

TEST(TrialFarm, FarmAllocationsAmortized) {
  // End-to-end farm: allocations must not scale per-trial beyond the
  // aggregate's own sample storage (geometric growth, a handful of
  // reallocations), no matter how many trials run.
  TrialSpec spec = clean_spec();
  spec.threads = 2;
  spec.trials = 128;
  run_trials(spec);  // warm the shared pool + result buffers
  std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  run_trials(spec);
  const std::int64_t small =
      g_allocs.load(std::memory_order_relaxed) - before;
  spec.trials = 384;
  before = g_allocs.load(std::memory_order_relaxed);
  run_trials(spec);
  const std::int64_t large =
      g_allocs.load(std::memory_order_relaxed) - before;
  // 3x the trials must cost far fewer than 1-alloc-per-extra-trial.
  EXPECT_LT(large - small, 256) << "small=" << small << " large=" << large;
}

#endif  // CG_ALLOC_COUNTING

}  // namespace
}  // namespace cg
