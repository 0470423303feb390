// pipebench: one run of the pipeline a simulator user waits for -
// tune_for -> config_error -> trial farm -> observability replay -> report
// JSON - through the same public calls, in the same order, as
// `cgsim --report-json` and `fault_campaign --report-json`.  Each call is
// one process running one pipeline from a cold start, as a user's CLI run
// does; run.py repeats it and reports medians (README.md).
//
//   pipebench --workload=NAME --seed=N --report=FILE [--trace] [--probe]
//             [--oracle]
//   pipebench --workload=NAME --seed=N --cli
//
// Prints one JSON line of measurements:
//   wall_s, setup_s, farm_s   pipeline start until the report file is
//                             closed / until the first trial is dispatched /
//                             the farm alone
//   trials, failed, problems  trials run, trials that broke the guarantee
//                             they claim (or truncated), and why
//   peak_rss_mb               process peak RSS when the report is written
//   aggregate, trial0         the report's aggregate and the replayed
//                             trial 0's RunMetrics, as JSON text, for the
//                             determinism and oracle checks
//   spans        (--trace)    [name, start_s, end_s] around each call into
//                             the simulator, from pipeline start
//   layers       (--probe)    per-layer numbers from probes run after the
//                             pipeline: every farm trial timed alone through
//                             TrialWorkspace::run, and trial 0 with an
//                             EngineProfile on the workload's engine and on
//                             one shard
//   oracle_trial0 (--oracle)  trial 0 rerun on the stepped engine
//   extra_s                   time spent on probes and oracle after the
//                             pipeline
// Tracing is those spans plus the program's own outputs (EngineProfile,
// RunMetrics, TrialAggregate); it adds nothing inside the libraries.
//
// --cli prints the stock-CLI command the workload maps to (test_parity.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/coloring.hpp"
#include "common/flags.hpp"
#include "harness/campaign.hpp"
#include "harness/scenarios.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/series.hpp"
#include "sim/core/profile.hpp"
#include "sim/fault/validate.hpp"

namespace {

using namespace cg;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// cgsim's defaults for the knobs the workloads leave alone (--l, --o,
// --eps, --f) and fault_campaign's fixed tuning target.
constexpr LogP kLogP{.l_over_o = 2, .o_us = 1.0};
constexpr double kCgsimEps = 6.9315e-7;
constexpr double kCampaignEps = 1e-4;

enum class Kind { kCgsim, kCampaign };

struct Workload {
  const char* name;
  Kind kind;
  Algo algo;         ///< kCgsim only
  NodeId n;
  int trials;        ///< per pipeline (kCgsim) or per campaign cell
  int farm_threads;  ///< 1 whenever the engine is sharded: a sharded run
                     ///< inside a farm worker falls back to one thread
  ExecConfig exec;
  int byz_count;     ///< equivocating nodes per trial
};

const Workload kWorkloads[] = {
    {"ccg-1m-sharded", Kind::kCgsim, Algo::kCcg, 1 << 20, 2, 1,
     {EngineKind::kSharded, 4}, 0},
    {"campaign-1k", Kind::kCampaign, Algo::kCcg, 1024, 100, 4, {}, 0},
    {"sbrb-byz-4k", Kind::kCgsim, Algo::kSbrb, 4096, 16, 1,
     {EngineKind::kSharded, 1}, 409},
};

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name;
  double start_s;
  double end_s;
};

/// Span log of a traced pipeline, kept in memory and printed at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  void record(const char* name, Clock::time_point a, Clock::time_point b) {
    spans_.push_back({name, secs(origin_, a), secs(origin_, b)});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Run `f` inside a span when traced; the untraced path adds nothing.
void span(Tracer* tr, const char* name, const std::function<void()>& f) {
  if (tr == nullptr) return f();
  const auto a = Clock::now();
  f();
  tr->record(name, a, Clock::now());
}

// --- one pipeline ------------------------------------------------------------

struct Replay {
  RunMetrics trial0;
  EngineProfile profile;
  obs::DriftReport drift;
  bool have_drift = false;
};

struct PipelineRun {
  double wall_s = 0;
  double setup_s = 0;
  double farm_s = 0;
  std::int64_t trials = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  /// What the farm ran, for the probes: one spec per aggregate.
  std::vector<TrialSpec> specs;
  std::vector<TrialAggregate> aggs;
  std::string aggregate_json;
  Replay replay;
  std::int64_t report_bytes = 0;
};

bool is_gossip_family(Algo a) {
  return a == Algo::kGos || a == Algo::kOcg || a == Algo::kCcg ||
         a == Algo::kFcg || a == Algo::kOcgChain;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

/// cgsim's observability replay: trial 0 again with an engine profile and
/// the StepSeries sink attached, then the drift check against c(t).
Replay replay_trial0(const TrialSpec& spec) {
  Replay r;
  obs::StepSeries series;
  RunConfig rcfg = trial_run_config(spec, 0);
  rcfg.trace = &series;
  rcfg.profile = &r.profile;
  r.trial0 = run_once(spec.algo, spec.acfg, rcfg, spec.exec);
  if (is_gossip_family(spec.algo) && series.steps() > 0) {
    Step t_cmp = series.steps() - 1;
    if (spec.algo != Algo::kGos)
      t_cmp = std::min(t_cmp, spec.acfg.T + spec.logp.delivery_delay());
    const auto model = expected_colored(spec.n, r.trial0.n_active,
                                        spec.acfg.T, spec.logp, t_cmp);
    r.drift = obs::compare_to_model(series.colored_cumulative(), model,
                                    r.trial0.n_active);
    r.have_drift = true;
  }
  return r;
}

/// Trials of `agg` that break guarantee `g` or were truncated.  The
/// aggregate keeps counts, not per-trial flags, so one trial may be
/// counted twice; capping at the trial count keeps the figure an upper
/// bound.
std::int64_t failed_trials(Guarantee g, const TrialAggregate& agg) {
  std::int64_t bad = agg.hit_max_steps_trials;
  switch (g) {
    case Guarantee::kNone: break;
    case Guarantee::kAllReached: bad += agg.trials - agg.all_colored_trials; break;
    case Guarantee::kAllOrNothing: bad += agg.all_or_nothing_violations; break;
    case Guarantee::kSosConsistent:
      bad += agg.all_or_nothing_violations + agg.sos_incomplete_trials;
      break;
    case Guarantee::kConsistent: bad += agg.consistency_violations; break;
  }
  return std::min(bad, agg.trials);
}

/// Clean-channel CCG (paper Claim 3): every trial reaches all active nodes
/// and completes within the model's predicted latency plus the paper's +O
/// margin (one step).  Returns the failing trials.
std::int64_t check_clean_ccg(const TrialAggregate& agg, Step predicted,
                             const std::string& where,
                             std::vector<std::string>& problems) {
  const Step bound = predicted + 1;
  std::int64_t late = 0;
  for (const double t : agg.t_complete.raw())
    if (t > static_cast<double>(bound)) ++late;
  const std::int64_t bad =
      std::min(agg.trials, failed_trials(Guarantee::kAllReached, agg) + late);
  if (bad > 0)
    problems.push_back(where + ": " + std::to_string(bad) +
                       " clean CCG trials missed all-reached or completed "
                       "after predicted latency + O (" +
                       std::to_string(bound) + " steps)");
  return bad;
}

std::string cgsim_report(const TrialSpec& spec, const TrialAggregate& agg,
                         const Replay& rp) {
  // Field for field what `cgsim --report-json` writes for these flags.
  obs::JsonWriter w;
  w.begin_object();
  w.key("config");
  w.begin_object();
  w.kv("algo", algo_name(spec.algo));
  w.kv("n", static_cast<std::int64_t>(spec.n));
  w.kv("l_us", spec.logp.l_us());
  w.kv("o_us", spec.logp.o_us);
  w.kv("T", static_cast<std::int64_t>(spec.acfg.T));
  w.kv("corr", static_cast<std::int64_t>(spec.acfg.ocg_corr_sends));
  w.kv("f", static_cast<std::int64_t>(spec.acfg.fcg_f));
  w.kv("trials", static_cast<std::int64_t>(spec.trials));
  w.kv("seed", static_cast<std::int64_t>(spec.seed));
  w.kv("jitter_max", static_cast<std::int64_t>(spec.jitter_max));
  w.kv("drop_prob", spec.drop_prob);
  w.kv("burst_loss", spec.burst_loss);
  w.kv("burst_mean", static_cast<std::int64_t>(spec.burst_mean));
  w.kv("restarts", static_cast<std::int64_t>(spec.restarts));
  w.kv("stragglers", static_cast<std::int64_t>(spec.stragglers));
  w.kv("partition_nodes", static_cast<std::int64_t>(spec.partition_nodes));
  w.kv("byz_count", static_cast<std::int64_t>(spec.byz_count));
  w.kv("byz_mode", byz_mode_name(spec.byz_mode));
  w.kv("byz_include_root", spec.byz_include_root);
  w.kv("reliable", spec.acfg.reliable.enabled);
  w.kv("pre_failures", static_cast<std::int64_t>(spec.pre_failures));
  w.kv("online_failures", static_cast<std::int64_t>(spec.online_failures));
  w.kv("eps", kCgsimEps);
  w.kv("engine", engine_name(spec.exec.engine));
  w.end_object();
  w.key("aggregate");
  obs::write_json(w, agg);
  w.key("trial0");
  w.begin_object();
  w.key("metrics");
  obs::write_json(w, rp.trial0);
  w.key("engine_profile");
  obs::write_json(w, rp.profile);
  w.key("drift");
  w.begin_object();
  if (rp.have_drift) {
    w.kv("compared_steps", static_cast<std::int64_t>(rp.drift.compared_steps));
    w.kv("max_abs", rp.drift.max_abs);
    w.kv("max_abs_at", static_cast<std::int64_t>(rp.drift.max_abs_at));
    w.kv("max_frac", rp.drift.max_frac);
    w.kv("mean_abs", rp.drift.mean_abs);
  }
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

/// `cgsim --report-json`: tune, validate, farm, replay trial 0, report.
PipelineRun cgsim_pipeline(const Workload& wl, std::uint64_t seed,
                           const std::string& report_path, Tracer* tr) {
  PipelineRun r;
  const auto t0 = Clock::now();
  TrialSpec spec;
  spec.algo = wl.algo;
  spec.n = wl.n;
  spec.logp = kLogP;
  spec.seed = seed;
  spec.trials = wl.trials;
  spec.threads = wl.farm_threads;
  spec.exec = wl.exec;
  spec.byz_count = wl.byz_count;
  spec.byz_mode = ByzMode::kEquivocator;

  TunedAlgo tuned;
  span(tr, "analysis.tune",
       [&] { tuned = tune_for(wl.algo, wl.n, wl.n, kLogP, kCgsimEps, 1); });
  spec.acfg = tuned.acfg;
  spec.acfg.fcg_f = 1;
  std::string err;
  span(tr, "sim.validate",
       [&] { err = config_error(trial_run_config(spec, 0)); });
  if (!err.empty()) {
    r.problems.push_back("invalid configuration: " + err);
    return r;
  }
  const auto t_setup = Clock::now();
  TrialAggregate agg;
  span(tr, "harness.farm", [&] { agg = run_trials(spec); });
  const auto t_farm = Clock::now();
  span(tr, "obs.replay", [&] { r.replay = replay_trial0(spec); });
  bool wrote = false;
  span(tr, "obs.report_write", [&] {
    const std::string body = cgsim_report(spec, agg, r.replay);
    r.report_bytes = static_cast<std::int64_t>(body.size());
    wrote = write_file(report_path, body);
  });
  const auto t_end = Clock::now();

  r.wall_s = secs(t0, t_end);
  r.setup_s = secs(t0, t_setup);
  r.farm_s = secs(t_setup, t_farm);
  if (!wrote) r.problems.push_back("cannot write " + report_path);
  r.trials = agg.trials;
  if (wl.algo == Algo::kCcg) {
    r.failed = check_clean_ccg(agg, tuned.predicted_latency_steps, wl.name,
                               r.problems);
  } else {
    r.failed = failed_trials(Guarantee::kConsistent, agg);
    if (r.failed > 0)
      r.problems.push_back(std::to_string(r.failed) +
                           " SBRB trials inconsistent or truncated");
  }
  r.aggregate_json = obs::to_json(agg);
  r.specs = {spec};
  r.aggs = {std::move(agg)};
  return r;
}

/// `fault_campaign --report-json`: tune CCG and FCG, validate every cell,
/// run the stock grid, replay trial 0 of the first cell, report.
/// fault_campaign itself has no replay step; the benchmark adds cgsim's so
/// every workload reports the same layers (it costs milliseconds here).
PipelineRun campaign_pipeline(const Workload& wl, std::uint64_t seed,
                              const std::string& report_path, Tracer* tr) {
  PipelineRun r;
  const auto t0 = Clock::now();
  CampaignConfig cfg;
  cfg.n = wl.n;
  cfg.logp = LogP::piz_daint();
  cfg.seed = seed;
  cfg.trials = wl.trials;
  cfg.threads = wl.farm_threads;

  std::vector<CampaignEntry> entries;
  Step ccg_predicted = 0;
  span(tr, "analysis.tune", [&] {
    for (const Algo a : {Algo::kCcg, Algo::kFcg}) {
      const TunedAlgo tuned =
          tune_for(a, cfg.n, cfg.n, cfg.logp, kCampaignEps, 1);
      if (a == Algo::kCcg) ccg_predicted = tuned.predicted_latency_steps;
      for (auto& e : default_entries(a, tuned.acfg)) entries.push_back(e);
    }
  });
  const std::vector<FaultScenario> scenarios = default_fault_scenarios();
  span(tr, "sim.validate", [&] {
    for (const auto& sc : scenarios)
      for (const auto& en : entries) {
        r.specs.push_back(campaign_trial_spec(cfg, sc, en));
        const std::string err =
            config_error(trial_run_config(r.specs.back(), 0));
        if (!err.empty())
          r.problems.push_back(sc.name + "/" + en.label + ": " + err);
      }
  });
  if (!r.problems.empty()) return r;
  const auto t_setup = Clock::now();
  CampaignResult result;
  span(tr, "harness.farm",
       [&] { result = run_campaign(cfg, scenarios, entries); });
  const auto t_farm = Clock::now();
  span(tr, "obs.replay", [&] { r.replay = replay_trial0(r.specs.front()); });
  bool wrote = false;
  span(tr, "obs.report_write", [&] {
    r.aggregate_json = obs::to_json(result);
    const std::string body = r.aggregate_json + "\n";
    r.report_bytes = static_cast<std::int64_t>(body.size());
    wrote = write_file(report_path, body);
  });
  const auto t_end = Clock::now();

  r.wall_s = secs(t0, t_end);
  r.setup_s = secs(t0, t_setup);
  r.farm_s = secs(t_setup, t_farm);
  if (!wrote) r.problems.push_back("cannot write " + report_path);
  for (auto& cell : result.cells) {
    r.trials += cell.agg.trials;
    const std::string where = cell.scenario + "/" + cell.entry;
    std::int64_t bad = failed_trials(cell.guarantee, cell.agg);
    if (bad > 0)
      r.problems.push_back(where + ": " + std::to_string(bad) +
                           " trials break " + guarantee_name(cell.guarantee) +
                           " or truncated");
    // The clean channel is where CCG's own claim applies unhardened.
    if (cell.scenario == "clean" && cell.entry == algo_name(Algo::kCcg))
      bad = std::max(bad, check_clean_ccg(cell.agg, ccg_predicted, where,
                                          r.problems));
    r.failed += bad;
    r.aggs.push_back(std::move(cell.agg));
  }
  return r;
}

// --- layer probes (run after a traced pipeline) ------------------------------

/// Per-layer numbers that come from rerunning the pipeline's own trials:
/// every farm trial alone, and trial 0 with an EngineProfile but no sink.
void write_layers(obs::JsonWriter& w, const PipelineRun& p) {
  Samples trial_s;
  double trial_sum_s = 0;
  bool isolated_match = true;
  TrialWorkspace ws;
  for (std::size_t i = 0; i < p.specs.size(); ++i) {
    TrialAggregate agg;
    for (int t = 0; t < p.specs[i].trials; ++t) {
      const auto a = Clock::now();
      const RunMetrics m = ws.run(p.specs[i], t);
      const double s = secs(a, Clock::now());
      trial_s.add(s);
      trial_sum_s += s;
      agg.absorb(m);
    }
    if (obs::to_json(agg) != obs::to_json(p.aggs[i])) isolated_match = false;
  }

  const TrialSpec& spec = p.specs.front();
  EngineProfile pf, pf1;
  RunConfig rcfg = trial_run_config(spec, 0);
  rcfg.profile = &pf;
  const RunMetrics m0 = run_once(spec.algo, spec.acfg, rcfg, spec.exec);
  RunConfig rcfg1 = trial_run_config(spec, 0);
  rcfg1.profile = &pf1;
  ExecConfig one = spec.exec;
  one.threads = 1;
  run_once(spec.algo, spec.acfg, rcfg1, one);

  double max_fired = 0, sum_fired = 0;
  for (const auto& s : pf.shard_stats) {
    max_fired = std::max(max_fired, static_cast<double>(s.events_fired));
    sum_fired += static_cast<double>(s.events_fired);
  }
  // Messages per trial, over every trial the farm ran.
  const auto per_trial = [&p](SummaryStat TrialAggregate::*field) {
    double sum = 0, trials = 0;
    for (const auto& a : p.aggs) {
      sum += (a.*field).sum();
      trials += static_cast<double>(a.trials);
    }
    return sum / trials;
  };
  // The engines split phases differently: stepped times deliver and tick
  // and routes inside deliver; sharded times phase A (deliver + tick) as
  // deliver_s and phase B as route_s.  compute = deliver + tick is the
  // protocol-dispatch time on both; exchange is the rest of the run.
  const double compute_s = pf.deliver_s + pf.tick_s;

  w.begin_object();
  w.kv("isolated_match", isolated_match);
  w.kv("harness.trial_sum_s", trial_sum_s);
  w.kv("harness.trial_s.p50", trial_s.p50());
  w.kv("harness.trial_s.p99", trial_s.p99());
  w.kv("harness.trial_s.samples", static_cast<std::int64_t>(trial_s.count()));
  w.kv("sim.run_s", pf.wall_s);
  w.kv("sim.compute_s", compute_s);
  w.kv("sim.exchange_s", pf.wall_s - compute_s);
  w.kv("sim.ns_per_event", 1e9 * pf.wall_s / static_cast<double>(pf.events()));
  w.kv("sim.callbacks_receive", pf.callbacks_receive);
  w.kv("sim.callbacks_tick", pf.callbacks_tick);
  w.kv("sim.steps", static_cast<std::int64_t>(pf.steps));
  w.kv("sim.bytes_per_node", pf.bytes_per_node);
  w.kv("sim.windows", pf.windows);
  w.kv("sim.window_stalls", pf.window_stalls);
  w.kv("sim.boundary_msgs", pf.boundary_msgs);
  w.kv("sim.shard_imbalance",
       sum_fired > 0 ? max_fired * static_cast<double>(pf.shard_stats.size()) /
                           sum_fired
                     : 1.0);
  w.kv("sim.run_s.shards1", pf1.wall_s);
  w.kv("sim.shard_speedup", pf1.wall_s / pf.wall_s);
  w.kv("gossip.msgs_gossip", per_trial(&TrialAggregate::work_gossip));
  w.kv("gossip.msgs_correction", per_trial(&TrialAggregate::work_correction));
  w.kv("gossip.msgs_retrans", per_trial(&TrialAggregate::work_retrans));
  w.kv("gossip.useful_receive_frac",
       static_cast<double>(m0.n_colored) /
           static_cast<double>(std::max<std::int64_t>(pf.callbacks_receive, 1)));
  w.kv("obs.report_bytes", p.report_bytes);
  w.end_object();
}

std::string cli_command(const Workload& wl, std::uint64_t seed) {
  const std::string tail = " --seed=" + std::to_string(seed);
  if (wl.kind == Kind::kCampaign)
    return "fault_campaign --n=" + std::to_string(wl.n) +
           " --trials=" + std::to_string(wl.trials) +
           " --threads=" + std::to_string(wl.farm_threads) + tail;
  std::string c = std::string("cgsim --algo=") +
                  (wl.algo == Algo::kSbrb ? "sbrb" : "ccg") +
                  " --n=" + std::to_string(wl.n) +
                  " --trials=" + std::to_string(wl.trials) +
                  " --threads=" + std::to_string(wl.farm_threads) +
                  " --engine=" + engine_name(wl.exec.engine) +
                  " --shards=" + std::to_string(wl.exec.threads) + tail;
  if (wl.byz_count > 0)
    c += " --byz=" + std::to_string(wl.byz_count) + " --byz-mode=equivocator";
  return c;
}

int usage(const char* msg) {
  std::fprintf(stderr, "pipebench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads)
    if (name == w.name) wl = &w;
  if (wl == nullptr)
    return usage(
        "--workload must be ccg-1m-sharded, campaign-1k or sbrb-byz-4k");
  if (!flags.has("seed")) return usage("--seed is required");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (flags.get_bool("cli", false)) {
    std::printf("%s\n", cli_command(*wl, seed).c_str());
    return 0;
  }
  const std::string report = flags.get_string("report", "");
  if (report.empty()) return usage("--report=FILE is required");

  Tracer tracer(Clock::now());
  Tracer* tr = flags.get_bool("trace", false) ? &tracer : nullptr;
  const PipelineRun r = wl->kind == Kind::kCgsim
                            ? cgsim_pipeline(*wl, seed, report, tr)
                            : campaign_pipeline(*wl, seed, report, tr);
  const double peak_rss_mb =
      static_cast<double>(current_peak_rss_bytes()) / (1024.0 * 1024.0);
  const auto t_done = Clock::now();

  obs::JsonWriter w;
  w.begin_object();
  w.kv("wall_s", r.wall_s);
  w.kv("setup_s", r.setup_s);
  w.kv("farm_s", r.farm_s);
  w.kv("peak_rss_mb", peak_rss_mb);
  w.kv("trials", r.trials);
  w.kv("failed", r.failed);
  w.kv("farm_threads", wl->farm_threads);
  w.key("build");
  w.begin_object();
  w.kv("compiler", PB_COMPILER);
  w.kv("cxx_flags", PB_CXX_FLAGS);
  w.kv("build_type", PB_BUILD_TYPE);
  w.end_object();
  w.key("problems");
  w.begin_array();
  for (const auto& p : r.problems) w.value(p);
  w.end_array();
  if (r.problems.empty()) {
    w.kv("aggregate", r.aggregate_json);
    w.kv("trial0", obs::to_json(r.replay.trial0));
    if (tr != nullptr) {
      w.key("spans");
      w.begin_array();
      for (const auto& s : tracer.spans()) {
        w.begin_array();
        w.value(s.name);
        w.value(s.start_s);
        w.value(s.end_s);
        w.end_array();
      }
      w.end_array();
    }
    if (flags.get_bool("probe", false)) {
      w.key("layers");
      write_layers(w, r);
    }
    if (flags.get_bool("oracle", false)) {
      const TrialSpec& spec = r.specs.front();
      w.kv("oracle_trial0",
           obs::to_json(run_once(spec.algo, spec.acfg,
                                 trial_run_config(spec, 0))));
    }
    w.kv("extra_s", secs(t_done, Clock::now()));
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
