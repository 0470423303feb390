#include "harness/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "common/check.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace cg {

const char* guarantee_name(Guarantee g) {
  switch (g) {
    case Guarantee::kNone: return "none";
    case Guarantee::kAllReached: return "all-reached";
    case Guarantee::kAllOrNothing: return "all-or-nothing";
    case Guarantee::kSosConsistent: return "sos-consistent";
    case Guarantee::kConsistent: return "consistent";
  }
  return "?";
}

bool guarantee_holds(Guarantee g, const TrialAggregate& agg) {
  switch (g) {
    case Guarantee::kNone:
      return true;
    case Guarantee::kAllReached:
      return agg.all_colored_trials == agg.trials;
    case Guarantee::kAllOrNothing:
      return agg.all_or_nothing_violations == 0;
    case Guarantee::kSosConsistent:
      return agg.all_or_nothing_violations == 0 &&
             agg.sos_incomplete_trials == 0;
    case Guarantee::kConsistent:
      return agg.consistency_violations == 0;
  }
  return false;
}

bool trial_violates(Guarantee g, const RunMetrics& m) {
  if (m.hit_max_steps) return true;  // truncated: always forensic-worthy
  switch (g) {
    case Guarantee::kNone:
      return false;
    case Guarantee::kAllReached:
      return !m.all_active_colored;
    case Guarantee::kAllOrNothing:
      return !m.all_or_nothing_delivery();
    case Guarantee::kSosConsistent:
      return !m.all_or_nothing_delivery() ||
             (m.sos_triggered && !m.all_active_delivered);
    case Guarantee::kConsistent:
      return !m.consistent_delivery;
  }
  return false;
}

/// What an entry may still claim in a given environment.  Crash faults void
/// claims the algorithms never made: CCG's consistency assumes no failure
/// during correction, and a restarted node rejoins uncolored (nobody owes
/// it a resend once the sweep has passed), so reach/all-or-nothing
/// predicates degrade to observation-only cells there.
Guarantee campaign_effective_guarantee(Guarantee g, const FaultScenario& sc) {
  // Byzantine senders void every crash-model claim (reach and
  // all-or-nothing assume honest forwarding); only kConsistent - the claim
  // the Byzantine tier exists to test - stays asserted.  It is also immune
  // to the crash rules below: crashes can only suppress deliveries, never
  // split the delivered payload.
  if (sc.byz_count > 0 && g != Guarantee::kConsistent &&
      g != Guarantee::kNone)
    return Guarantee::kNone;
  if (g == Guarantee::kConsistent) return g;
  const bool crashes = sc.online_failures > 0 || sc.restarts > 0;
  if (!crashes || g == Guarantee::kNone) return g;
  if (g == Guarantee::kAllReached) return Guarantee::kNone;
  if (sc.restarts > 0) return Guarantee::kNone;
  return g;  // FCG-style claims survive plain crashes (f is sized below)
}

namespace {

/// Collects flight-recorder dumps across workers.  Dumps are rare
/// (violating trials only) and capped per cell, so a single mutex around
/// the whole dump path costs nothing in the steady state.
class ArtifactSink {
 public:
  ArtifactSink(const CampaignConfig& cfg, const std::vector<CampaignCell>& cells)
      : cfg_(cfg), cells_(cells), kept_(cells.size()) {}

  /// Ring capacity of each worker's flight recorder.
  std::size_t flight_capacity() const {
    return cfg_.flight_capacity > 0
               ? static_cast<std::size_t>(cfg_.flight_capacity)
               : obs::FlightRecorder::kDefaultCapacity;
  }

  /// Called after a violating trial: dump `fr` and remember the artifact.
  /// Each cell keeps its max_artifacts_per_cell LOWEST violating trials -
  /// a later-finishing lower trial replaces the highest kept one and
  /// deletes its file - so the set on disk does not depend on the order
  /// the workers finished in.
  void dump(int cell, int trial, std::uint64_t seed,
            const obs::FlightRecorder& fr, const RunMetrics& m) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto& where = cells_[static_cast<std::size_t>(cell)];
    auto& kept = kept_[static_cast<std::size_t>(cell)];
    const auto highest = std::max_element(kept.begin(), kept.end(), by_trial);
    const bool full =
        static_cast<int>(kept.size()) >= cfg_.max_artifacts_per_cell;
    if (full && (kept.empty() || highest->trial < trial)) return;
    const std::string t = std::to_string(trial);
    std::string rerun = cfg_.rerun_prefix;
    if (!rerun.empty()) rerun += ' ';
    rerun += "--replay=" + where.scenario + "/" + where.entry + "/" + t;
    FailureArtifact art{where.scenario, where.entry, trial, seed,
                        cfg_.artifacts_dir + "/" + where.scenario + "__" +
                            where.entry + "__t" + t + ".jsonl",
                        m.hit_max_steps};
    if (!fr.dump_jsonl(art.path, {rerun, where.scenario, where.entry, trial,
                                  seed, m.hit_max_steps}))
      return;
    if (full) {
      std::error_code ignored;
      std::filesystem::remove(highest->path, ignored);
      *highest = std::move(art);
    } else {
      kept.push_back(std::move(art));
    }
  }

  /// Artifacts in deterministic (cell, trial) order.
  std::vector<FailureArtifact> take_sorted() {
    std::vector<FailureArtifact> out;
    for (auto& kept : kept_) {
      std::sort(kept.begin(), kept.end(), by_trial);
      for (auto& art : kept) out.push_back(std::move(art));
    }
    return out;
  }

 private:
  const CampaignConfig& cfg_;
  const std::vector<CampaignCell>& cells_;
  std::mutex mu_;
  std::vector<std::vector<FailureArtifact>> kept_;  // per cell

  static bool by_trial(const FailureArtifact& a, const FailureArtifact& b) {
    return a.trial < b.trial;
  }
};

/// The trial farm behind run_trials and run_campaign: runs every trial of
/// every cell (cells[c] runs specs[c]) on `threads` pool participants
/// (<= 0 = auto) and absorbs each cell's RunMetrics into cells[c].agg in
/// trial order, so the result is byte-identical for any thread count.
/// Beats `heartbeat` once per trial, counting trial_violates(guarantee, m)
/// as a failure; with `artifacts`, every trial runs under a per-worker
/// flight recorder that the sink dumps when the trial violates.  Returns
/// the failure count.
std::int64_t run_farm(std::span<const TrialSpec> specs,
                      std::span<CampaignCell> cells, int threads,
                      Heartbeat* heartbeat, ArtifactSink* artifacts) {
  std::int64_t total = 0;
  for (const auto& spec : specs) total += spec.trials;
  threads = static_cast<int>(std::min<std::int64_t>(
      resolve_threads(threads), std::max<std::int64_t>(total, 1)));

  struct Slot {
    TrialWorkspace ws;
    std::optional<obs::FlightRecorder> fr;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(threads));
  if (artifacts != nullptr)
    for (auto& s : slots) s.fr.emplace(artifacts->flight_capacity());
  std::atomic<std::int64_t> done{0};
  std::atomic<std::int64_t> failed{0};
  const auto run_trial = [&](Slot& s, std::size_t c, int t) {
    obs::FlightRecorder* fr = s.fr ? &*s.fr : nullptr;
    if (fr != nullptr) fr->clear();
    const RunMetrics m = s.ws.run(specs[c], t, fr);
    if (trial_violates(cells[c].guarantee, m)) {
      failed.fetch_add(1, std::memory_order_relaxed);
      if (fr != nullptr)
        artifacts->dump(static_cast<int>(c), t, s.ws.config().seed, *fr, m);
    }
    if (heartbeat != nullptr)
      heartbeat->beat(done.fetch_add(1, std::memory_order_relaxed) + 1, total,
                      failed.load(std::memory_order_relaxed));
    return m;
  };

  // One participant: run the trials right here.  Going through
  // parallel_for would mark this thread as pool work and so keep a
  // multi-shard trial from claiming its own shard threads.
  if (threads == 1) {
    for (std::size_t c = 0; c < specs.size(); ++c)
      for (int t = 0; t < specs[c].trials; ++t)
        cells[c].agg.absorb(run_trial(slots.front(), c, t));
    return failed.load(std::memory_order_relaxed);
  }

  // Flatten the cells into (cell, trial-range) units so parallelism spans
  // cells, not just trials within one: many small cells would otherwise
  // leave most workers idle at every cell boundary.  Units never straddle
  // cells (each worker's cached engine switches workload at most once per
  // unit), and each covers several trials so the engine reuse amortizes.
  struct Unit {
    std::size_t cell;
    int t0;
    int t1;
    std::int64_t base;  // results index of (cell, 0)
  };
  std::vector<Unit> units;
  std::int64_t base = 0;
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const int trials = specs[c].trials;
    const int unit = static_cast<int>(
        std::clamp<std::int64_t>(total / (8 * threads), 1, trials));
    for (int t0 = 0; t0 < trials; t0 += unit)
      units.push_back({c, t0, std::min(t0 + unit, trials), base});
    base += trials;
  }
  // Workers write per-(cell, trial) result slots; the reduction below
  // runs in (cell, trial) order, so the aggregates are byte-identical to
  // the one-participant path however the pool interleaved the work.
  std::vector<RunMetrics> results(static_cast<std::size_t>(total));
  ThreadPool::global(threads).parallel_for(
      static_cast<std::int64_t>(units.size()), 1, threads,
      [&](std::int64_t begin, std::int64_t end, int slot) {
        auto& s = slots[static_cast<std::size_t>(slot)];
        for (std::int64_t u = begin; u < end; ++u) {
          const Unit& un = units[static_cast<std::size_t>(u)];
          for (int t = un.t0; t < un.t1; ++t)
            results[static_cast<std::size_t>(un.base + t)] =
                run_trial(s, un.cell, t);
        }
      });
  auto next = results.begin();
  for (std::size_t c = 0; c < specs.size(); ++c)
    for (int t = 0; t < specs[c].trials; ++t) cells[c].agg.absorb(*next++);
  return failed.load(std::memory_order_relaxed);
}

}  // namespace

TrialAggregate run_trials(const TrialSpec& spec) {
  CG_CHECK(spec.trials >= 1);
  CampaignCell cell;  // Guarantee::kNone: failures = truncated trials
  run_farm({&spec, 1}, {&cell, 1}, spec.threads, spec.heartbeat, nullptr);
  return std::move(cell.agg);
}

TrialSpec campaign_trial_spec(const CampaignConfig& cfg,
                              const FaultScenario& scenario,
                              const CampaignEntry& entry) {
  TrialSpec spec;
  spec.algo = entry.algo;
  spec.acfg = entry.acfg;
  spec.n = cfg.n;
  spec.root = cfg.root;
  spec.logp = cfg.logp;
  spec.rx = cfg.rx;
  spec.seed = cfg.seed;
  spec.trials = cfg.trials;
  spec.threads = cfg.threads;
  spec.max_steps = cfg.max_steps;
  spec.exec = cfg.exec;

  static_cast<FaultKnobs&>(spec) = scenario;

  // FCG is configured for the crash level it is asked to survive.
  if (entry.algo == Algo::kFcg)
    spec.acfg.fcg_f = std::max(spec.acfg.fcg_f, scenario.online_failures);
  return spec;
}

CampaignResult run_campaign(const CampaignConfig& cfg,
                            const std::vector<FaultScenario>& scenarios,
                            const std::vector<CampaignEntry>& entries) {
  CG_CHECK(cfg.trials >= 1);
  CampaignResult result;
  const std::size_t n_cells = scenarios.size() * entries.size();
  result.cells.reserve(n_cells);
  std::vector<TrialSpec> specs;
  specs.reserve(n_cells);
  for (const auto& sc : scenarios) {
    for (const auto& e : entries) {
      CampaignCell cell;
      cell.scenario = sc.name;
      cell.entry = e.label;
      cell.guarantee = campaign_effective_guarantee(e.guarantee, sc);
      result.cells.push_back(std::move(cell));
      specs.push_back(campaign_trial_spec(cfg, sc, e));
    }
  }

  // Forensics: the farm's flight recorders observe only, so attaching
  // them cannot perturb the metrics - the campaign stays byte-identical
  // with and without an artifacts_dir.
  ArtifactSink artifacts(cfg, result.cells);
  const std::int64_t failed =
      run_farm(specs, result.cells, cfg.threads, cfg.heartbeat,
               cfg.artifacts_dir.empty() ? nullptr : &artifacts);
  result.artifacts = artifacts.take_sorted();
  if (cfg.heartbeat != nullptr) {
    const auto total = static_cast<std::int64_t>(n_cells) * cfg.trials;
    cfg.heartbeat->force(total, total, failed);
  }

  for (auto& cell : result.cells) {
    cell.pass = guarantee_holds(cell.guarantee, cell.agg);
    if (!cell.pass) ++result.failed_cells;
  }
  return result;
}

std::vector<FaultScenario> default_fault_scenarios() {
  std::vector<FaultScenario> v;
  {
    FaultScenario s;
    s.name = "clean";
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "iid-loss-2pct";
    s.drop_prob = 0.02;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "burst-loss";  // mean burst 4 steps, 3% overall loss
    s.burst_loss = 0.03;
    s.burst_mean = 4;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "jittery-burst";
    s.burst_loss = 0.02;
    s.burst_mean = 3;
    s.jitter_max = 2;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "crash";
    s.pre_failures = 1;
    s.online_failures = 1;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "crash-restart";
    s.restarts = 2;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "stragglers";
    s.stragglers = 3;
    s.straggler_factor = 4;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "partition";
    s.partition_nodes = 4;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "kitchen-sink";
    s.burst_loss = 0.02;
    s.burst_mean = 3;
    s.jitter_max = 1;
    s.online_failures = 1;
    s.stragglers = 2;
    v.push_back(s);
  }
  return v;
}

std::vector<CampaignEntry> default_entries(Algo algo, const AlgoConfig& base) {
  std::vector<CampaignEntry> v;
  CampaignEntry plain;
  plain.label = algo_name(algo);
  plain.algo = algo;
  plain.acfg = base;
  plain.acfg.reliable.enabled = false;

  CampaignEntry hard = plain;
  hard.label = std::string(algo_name(algo)) + "+rel";
  hard.acfg.reliable.enabled = true;

  switch (algo) {
    case Algo::kCcg:
      plain.guarantee = Guarantee::kNone;  // loss voids Claim 3 unhardened
      hard.guarantee = Guarantee::kAllReached;
      v.push_back(plain);
      v.push_back(hard);
      break;
    case Algo::kFcg:
      plain.guarantee = Guarantee::kNone;
      hard.guarantee = Guarantee::kSosConsistent;
      v.push_back(plain);
      v.push_back(hard);
      break;
    default:
      // No hardened variant: the sublayer only covers correction/SOS tags.
      plain.guarantee = Guarantee::kNone;
      v.push_back(plain);
      break;
  }
  return v;
}

std::vector<FaultScenario> byzantine_fault_scenarios(NodeId n) {
  std::vector<FaultScenario> v;
  {
    FaultScenario s;
    s.name = "byz-clean";  // baseline: same entries, no adversary
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "byz-5pct";
    s.byz_count = std::max<int>(1, static_cast<int>(n / 20));
    s.byz_mode = ByzMode::kEquivocator;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "byz-10pct";
    s.byz_count = std::max<int>(1, static_cast<int>(n / 10));
    s.byz_mode = ByzMode::kEquivocator;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "byz-root-equiv";  // the canonical consistency attack
    s.byz_count = 1;
    s.byz_mode = ByzMode::kEquivocator;
    s.byz_include_root = true;
    v.push_back(s);
  }
  return v;
}

std::vector<CampaignEntry> byzantine_entries(const AlgoConfig& ccg,
                                             const AlgoConfig& fcg,
                                             const AlgoConfig& sbrb) {
  std::vector<CampaignEntry> v;
  CampaignEntry e;
  e.label = "CCG";
  e.algo = Algo::kCcg;
  e.acfg = ccg;
  e.guarantee = Guarantee::kConsistent;
  v.push_back(e);
  e.label = "FCG";
  e.algo = Algo::kFcg;
  e.acfg = fcg;
  v.push_back(e);
  e.label = "SBRB";
  e.algo = Algo::kSbrb;
  e.acfg = sbrb;
  v.push_back(e);
  return v;
}

}  // namespace cg
