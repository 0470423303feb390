// cgsim: general-purpose command-line driver for the simulator - run any
// algorithm at any configuration and print the aggregate metrics.  This is
// the "authors' simulator" workflow: every experiment in the paper (and in
// EXPERIMENTS.md) can be reproduced from this one binary, if you prefer
// flags over the canned bench targets.
//
//   ./cgsim --algo=fcg --n=4096 --l=2 --o=1 --trials=1000 [--t=37]
//           [--corr=6] [--f=1] [--pre-fail=3] [--online-fail=1]
//           [--jitter=0] [--drop-prob=0] [--eps=6.93e-7] [--seed=1]
//           [--rx=drain|one] [--threads=0] [--drain-extra=0] [--csv]
//           [--engine=stepped|sharded] [--shards=K]
//
// --engine picks the execution engine carrying every trial (identical
// results, different wall-clock profile; sharded is the scale engine for
// million-node runs).  --shards sets the sharded engine's shard count.
// Unknown --engine or --rx values exit 2 listing the accepted set.
// Unknown flags, malformed numbers or booleans, --n/--trials/--shards/--o
// below 1 and an --l that is negative or not a multiple of --o exit 2
// naming the flag.
//
// Omitted --t/--corr are tuned from the analytic models at --eps.
//
// Fault injection (docs/FAULTS.md):
//   --drop-prob=P         i.i.d. loss (alias: --drop); 1.0 = blackhole
//   --burst-loss=P        Gilbert-Elliott burst loss, overall rate P
//   --burst-mean=K        mean burst length in steps (default 4)
//   --restart=K           K nodes crash and rejoin uncolored
//   --restart-outage=S    steps a restarted node stays down (0 = auto)
//   --stragglers=K        K nodes send at --straggler-factor x delay
//   --partition=K         K nodes transiently partitioned off
//   --reliable            ack/retransmit hardening for CCG/FCG correction
//   --byz=K               K Byzantine nodes per trial (docs/FAULTS.md)
//   --byz-mode=M          silent|equivocator|corruptor|spammer
//   --byz-root            force the root into the Byzantine set (root
//                         equivocation - the canonical consistency attack;
//                         --algo=sbrb is the defense)
//
// Observability outputs (each replays trial #0 with instrumentation):
//   --trace-out=<file>    event trace; *.jsonl gets one JSON object per
//                         event, anything else gets Chrome trace-event JSON
//                         (open in https://ui.perfetto.dev)
//   --series-out=<file>   per-step time series; *.csv or JSON by extension
//   --series-stride=K     fold K consecutive steps into one series row
//                         (big runs; drift check needs stride 1)
//   --sample-out=<file>   deterministic reservoir sample of the trace
//                         (--sample-k events, default 4096; byte-identical
//                         across engines and shard/thread counts); *.jsonl
//                         or Chrome JSON by extension
//   --histograms          telemetry histograms (coloring latency, inbox
//                         depth, boundary traffic, retransmits) as a table
//                         and a "telemetry" report-JSON object
//   --heartbeat=SECONDS   single-line JSON progress on stderr
//   --report-json=<file>  machine-readable report: config, aggregate with
//                         percentiles, trial-0 metrics / engine profile /
//                         drift vs the analytic c(t)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "analysis/coloring.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"
#include "obs/json.hpp"
#include "obs/sampling_sink.hpp"
#include "obs/telemetry.hpp"
#include "sim/fault/validate.hpp"
#include "obs/report.hpp"
#include "obs/series.hpp"
#include "obs/trace_sinks.hpp"

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

bool is_gossip_family(cg::Algo a) {
  return a == cg::Algo::kGos || a == cg::Algo::kOcg || a == cg::Algo::kCcg ||
         a == cg::Algo::kFcg || a == cg::Algo::kOcgChain;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);

  const std::string algo_s = flags.get_string("algo", "ccg");
  Algo algo;
  if (!algo_from_name(algo_s, algo)) {
    std::fprintf(stderr, "unknown --algo=%s (%s)\n", algo_s.c_str(),
                 algo_names_list());
    return 2;
  }

  // Range checks come before tuning: the tuner and the engines assume
  // N >= 1 and, as the paper does, that L is a multiple of O.
  const auto n = static_cast<NodeId>(flags.get_int_at_least("n", 1024, 1));
  const std::int64_t o = flags.get_int_at_least("o", 1, 1);
  const std::int64_t l = flags.get_int_at_least("l", 2, 0);
  if (l % o != 0)
    flags.fail("l", "must be a multiple of --o=" + std::to_string(o));
  const LogP logp{.l_over_o = l / o, .o_us = static_cast<double>(o)};
  const double eps = flags.get_double("eps", 6.9315e-7);
  const int f = static_cast<int>(flags.get_int("f", 1));
  const int pre = static_cast<int>(flags.get_int("pre-fail", 0));
  const int online = static_cast<int>(flags.get_int("online-fail", 0));

  TrialSpec spec;
  spec.algo = algo;
  spec.n = n;
  spec.logp = logp;
  spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.trials = static_cast<int>(flags.get_int_at_least("trials", 1000, 1));
  spec.threads = static_cast<int>(flags.get_int("threads", 0));
  spec.jitter_max = flags.get_int("jitter", 0);
  spec.drop_prob = flags.get_double("drop-prob", flags.get_double("drop", 0.0));
  spec.burst_loss = flags.get_double("burst-loss", 0.0);
  spec.burst_mean = flags.get_int("burst-mean", 4);
  spec.restarts = static_cast<int>(flags.get_int("restart", 0));
  spec.restart_outage = flags.get_int("restart-outage", 0);
  spec.stragglers = static_cast<int>(flags.get_int("stragglers", 0));
  spec.straggler_factor = flags.get_int("straggler-factor", 4);
  spec.partition_nodes = static_cast<int>(flags.get_int("partition", 0));
  spec.byz_count = static_cast<int>(flags.get_int("byz", 0));
  spec.byz_include_root = flags.get_bool("byz-root", false);
  if (spec.byz_include_root && spec.byz_count == 0) spec.byz_count = 1;
  const std::string byz_mode_s = flags.get_string("byz-mode", "equivocator");
  if (!byz_mode_from_name(byz_mode_s, spec.byz_mode)) {
    std::fprintf(stderr, "unknown --byz-mode=%s (%s)\n", byz_mode_s.c_str(),
                 byz_mode_names_list());
    return 2;
  }
  spec.pre_failures = pre;
  spec.online_failures = online;
  const std::string rx_s = flags.get_string("rx", "drain");
  if (rx_s != "drain" && rx_s != "one") {
    std::fprintf(stderr, "unknown --rx=%s (drain, one)\n", rx_s.c_str());
    return 2;
  }
  spec.rx = rx_s == "one" ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;

  spec.exec = exec_from_flags(flags);

  const bool has_t = flags.has("t");
  const Step t_flag = flags.get_int("t", 0);
  const bool has_corr = flags.has("corr");
  const Step corr_flag = flags.get_int("corr", 0);
  const Step drain_extra = flags.get_int("drain-extra", 0);
  const bool reliable = flags.get_bool("reliable", false);
  const bool has_heartbeat = flags.has("heartbeat");
  const double heartbeat_s = flags.get_double("heartbeat", 5.0);
  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string series_out = flags.get_string("series-out", "");
  const std::string report_out = flags.get_string("report-json", "");
  const std::string sample_out = flags.get_string("sample-out", "");
  const auto sample_k = static_cast<std::size_t>(
      std::max<std::int64_t>(flags.get_int("sample-k", 4096), 1));
  const bool histograms = flags.get_bool("histograms", false);
  const Step series_stride = flags.get_int_at_least("series-stride", 1, 1);
  const bool csv = flags.get_bool("csv", false);
  flags.check_all_read();

  // Parameters: explicit flags override the model-tuned defaults.
  const TunedAlgo tuned = tune_for(algo, n, n - pre, logp, eps, f);
  spec.acfg = tuned.acfg;
  if (has_t) spec.acfg.T = t_flag;
  if (has_corr) spec.acfg.ocg_corr_sends = corr_flag;
  spec.acfg.fcg_f = f;
  spec.acfg.drain_extra = drain_extra;
  spec.acfg.reliable.enabled = reliable;

  // Surface configuration problems as a friendly error instead of the
  // engine's CG_CHECK abort (e.g. out-of-range probabilities, a schedule
  // that crashes the root, overlapping restart windows).
  const std::string cfg_err = config_error(trial_run_config(spec, 0));
  if (!cfg_err.empty()) {
    std::fprintf(stderr, "cgsim: invalid configuration: %s\n",
                 cfg_err.c_str());
    return 2;
  }

  std::printf("cgsim: %s on N=%d (L=%.0fus O=%.0fus), T=%lld, %d trials, "
              "%d pre-failed, %d online failures, jitter<=%lld, eps=%.3g\n",
              algo_name(algo), n, logp.l_us(), logp.o_us,
              static_cast<long long>(spec.acfg.T), spec.trials, pre, online,
              static_cast<long long>(spec.jitter_max), eps);

  // Progress heartbeat: single-line JSON on stderr, covering both the
  // trial farm and the observability replay.
  std::unique_ptr<Heartbeat> heartbeat;
  if (has_heartbeat)
    heartbeat = std::make_unique<Heartbeat>(stderr, heartbeat_s, "cgsim");
  spec.heartbeat = heartbeat.get();

  const TrialAggregate agg = run_trials(spec);

  // Observability replay: re-run trial #0 (exact same seed and failure
  // schedule) with trace sinks and an engine profile attached.
  const bool observe = !trace_out.empty() || !series_out.empty() ||
                       !report_out.empty() || !sample_out.empty() ||
                       histograms;

  RunMetrics trial0;
  EngineProfile profile;
  Telemetry telemetry;
  obs::StepSeries series;
  series.set_stride(series_stride);
  obs::DriftReport drift;
  bool have_drift = false;
  bool trace_ok = true;
  bool sample_ok = true;
  if (observe) {
    obs::TeeTraceSink tee;
    tee.add(&series);
    std::unique_ptr<obs::JsonlTraceSink> jsonl;
    std::unique_ptr<obs::ChromeTraceSink> chrome;
    if (!trace_out.empty()) {
      if (trace_out.ends_with(".jsonl")) {
        jsonl = std::make_unique<obs::JsonlTraceSink>(trace_out);
        trace_ok = jsonl->ok();
        tee.add(jsonl.get());
      } else {
        chrome = std::make_unique<obs::ChromeTraceSink>(trace_out, logp.o_us);
        tee.add(chrome.get());
      }
    }
    RunConfig rcfg = trial_run_config(spec, 0);
    // The reservoir is seeded from the trial's run seed so the sampled
    // event set is a pure function of the run, not of the engine or its
    // shard/thread count.
    std::unique_ptr<obs::SamplingTraceSink> sampler;
    if (!sample_out.empty()) {
      sampler = std::make_unique<obs::SamplingTraceSink>(rcfg.seed, sample_k);
      tee.add(sampler.get());
    }
    rcfg.trace = &tee;
    rcfg.profile = &profile;
    if (histograms) rcfg.telemetry = &telemetry;
    rcfg.heartbeat = heartbeat.get();
    trial0 = run_once(algo, spec.acfg, rcfg, spec.exec);
    if (chrome) trace_ok = chrome->close();
    if (sampler) {
      const std::vector<TraceEvent> sampled = sampler->sample();
      if (sample_out.ends_with(".jsonl")) {
        sample_ok = write_file(sample_out, obs::to_jsonl(sampled));
      } else {
        obs::ChromeTraceSink csink(sample_out, logp.o_us);
        for (const auto& ev : sampled) csink.on_event(ev);
        sample_ok = csink.close();
      }
      if (sample_ok)
        std::printf("sample (trial 0, %zu of %lld events): %s\n",
                    sampled.size(),
                    static_cast<long long>(sampler->seen()),
                    sample_out.c_str());
    }

    if (is_gossip_family(algo) && series_stride == 1 && series.steps() > 0) {
      // Compare against the analytic c(t) over the gossip window only: the
      // recurrence models gossip coloring, and for the corrected variants
      // the tail of the curve is correction work it does not describe.
      Step t_cmp = series.steps() - 1;
      if (algo != Algo::kGos)
        t_cmp = std::min(t_cmp, spec.acfg.T + logp.delivery_delay());
      const auto model =
          expected_colored(n, trial0.n_active, spec.acfg.T, logp, t_cmp);
      drift = obs::compare_to_model(series.colored_cumulative(), model,
                                    trial0.n_active);
      have_drift = true;
    }
  }

  Table table({"metric", "value"});
  const double lat = reported_latency_steps(algo, agg);
  table.add_row({"latency (mean, us)", Table::cell("%.2f", logp.us(1) * lat)});
  if (!agg.t_complete.empty()) {
    table.add_row({"latency p50 (us)",
                   Table::cell("%.2f", logp.us(1) * agg.t_complete.p50())});
    table.add_row({"latency p90 (us)",
                   Table::cell("%.2f", logp.us(1) * agg.t_complete.p90())});
    table.add_row({"latency p99 (us)",
                   Table::cell("%.2f", logp.us(1) * agg.t_complete.quantile(0.99))});
    table.add_row({"latency max (us)",
                   Table::cell("%.2f", logp.us(1) * agg.t_complete.max())});
  }
  if (!agg.t_last_colored_partial.empty())
    table.add_row(
        {"last coloring, reached nodes (mean, us)",
         Table::cell("%.2f", logp.us(1) * agg.t_last_colored_partial.mean())});
  table.add_row({"predicted (us)",
                 Table::cell("%.1f", logp.us(tuned.predicted_latency_steps))});
  table.add_row({"work (mean msgs)", Table::cell("%.1f", agg.work.mean())});
  table.add_row({"work p50/p90/p99 (msgs)",
                 Table::cell("%.0f / %.0f / %.0f", agg.work.p50(),
                             agg.work.p90(), agg.work.p99())});
  table.add_row({"  gossip part", Table::cell("%.1f", agg.work_gossip.mean())});
  table.add_row({"  correction part",
                 Table::cell("%.1f", agg.work_correction.mean())});
  if (spec.acfg.reliable.enabled)
    table.add_row({"  retransmissions",
                   Table::cell("%.1f", agg.work_retrans.mean())});
  table.add_row({"inconsistency (mean)",
                 Table::cell("%.3g", agg.inconsistency.mean())});
  table.add_row({"all-reached trials",
                 Table::cell("%lld/%lld",
                             static_cast<long long>(agg.all_colored_trials),
                             static_cast<long long>(agg.trials))});
  table.add_row({"SOS trials",
                 Table::cell("%lld", static_cast<long long>(agg.sos_trials))});
  table.add_row(
      {"all-or-nothing violations",
       Table::cell("%lld", static_cast<long long>(agg.all_or_nothing_violations))});
  table.add_row({"truncated (hit max steps)",
                 Table::cell("%lld",
                             static_cast<long long>(agg.hit_max_steps_trials))});
  if (spec.byz_count > 0) {
    table.add_row(
        {"consistency violations",
         Table::cell("%lld/%lld",
                     static_cast<long long>(agg.consistency_violations),
                     static_cast<long long>(agg.trials))});
    table.add_row({"forged-delivery trials",
                   Table::cell("%lld", static_cast<long long>(
                                           agg.forged_delivery_trials))});
    table.add_row(
        {"byz msgs (equiv/forged/suppr)",
         Table::cell("%lld / %lld / %lld",
                     static_cast<long long>(agg.msgs_equivocated_total),
                     static_cast<long long>(agg.msgs_forged_total),
                     static_cast<long long>(agg.msgs_suppressed_total))});
  }
  if (csv)
    std::fputs(table.csv().c_str(), stdout);
  else
    table.print();

  if (histograms) {
    const TelemetryCell& mc = telemetry.merged();
    std::printf("telemetry (trial 0): %lld colorings, %lld deliveries\n",
                static_cast<long long>(mc.colorings),
                static_cast<long long>(mc.deliveries));
    Table ht({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    const auto row = [&ht](const char* name, const LogHistogram& h) {
      ht.add_row({name, Table::cell("%lld", static_cast<long long>(h.count())),
                  Table::cell("%.2f", h.mean()),
                  Table::cell("%lld", static_cast<long long>(h.quantile(0.5))),
                  Table::cell("%lld", static_cast<long long>(h.quantile(0.9))),
                  Table::cell("%lld", static_cast<long long>(h.quantile(0.99))),
                  Table::cell("%lld", static_cast<long long>(h.max_bound()))});
    };
    row("coloring latency (steps)", mc.coloring_latency);
    row("inbox depth (msgs per node-step)", mc.inbox_depth);
    row("window boundary (msgs per shard-window)", mc.window_boundary);
    row("retransmits (msgs per run)", telemetry.retransmits());
    ht.print();
  }

  int rc = 0;
  if (observe) {
    if (!sample_out.empty() && !sample_ok) {
      std::fprintf(stderr, "cgsim: cannot write %s\n", sample_out.c_str());
      rc = 1;
    }
    if (!trace_out.empty()) {
      if (trace_ok) {
        std::printf("trace (trial 0): %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "cgsim: cannot write %s\n", trace_out.c_str());
        rc = 1;
      }
    }
    if (!series_out.empty()) {
      const std::string body = series_out.ends_with(".csv") ? series.to_csv()
                                                            : series.to_json();
      if (write_file(series_out, body)) {
        std::printf("series (trial 0, %lld steps): %s\n",
                    static_cast<long long>(series.steps()), series_out.c_str());
      } else {
        std::fprintf(stderr, "cgsim: cannot write %s\n", series_out.c_str());
        rc = 1;
      }
    }
    if (have_drift)
      std::printf("coloring drift vs analytic c(t) over %lld steps: "
                  "max %.1f nodes (%.2f%% of active, at t=%lld), mean %.2f\n",
                  static_cast<long long>(drift.compared_steps), drift.max_abs,
                  100.0 * drift.max_frac,
                  static_cast<long long>(drift.max_abs_at), drift.mean_abs);
    if (!report_out.empty()) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("config");
      w.begin_object();
      w.kv("algo", algo_name(algo));
      w.kv("n", static_cast<std::int64_t>(n));
      w.kv("l_us", logp.l_us());
      w.kv("o_us", logp.o_us);
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
      w.kv("partition_nodes",
           static_cast<std::int64_t>(spec.partition_nodes));
      w.kv("byz_count", static_cast<std::int64_t>(spec.byz_count));
      w.kv("byz_mode", byz_mode_name(spec.byz_mode));
      w.kv("byz_include_root", spec.byz_include_root);
      w.kv("reliable", spec.acfg.reliable.enabled);
      w.kv("pre_failures", static_cast<std::int64_t>(spec.pre_failures));
      w.kv("online_failures",
           static_cast<std::int64_t>(spec.online_failures));
      w.kv("eps", eps);
      w.kv("engine", engine_name(spec.exec.engine));
      w.end_object();
      w.key("aggregate");
      obs::write_json(w, agg);
      w.key("trial0");
      w.begin_object();
      w.key("metrics");
      obs::write_json(w, trial0);
      w.key("engine_profile");
      obs::write_json(w, profile);
      if (histograms) {
        w.key("telemetry");
        obs::write_json(w, telemetry);
      }
      w.key("drift");
      w.begin_object();
      if (have_drift) {
        w.kv("compared_steps", static_cast<std::int64_t>(drift.compared_steps));
        w.kv("max_abs", drift.max_abs);
        w.kv("max_abs_at", static_cast<std::int64_t>(drift.max_abs_at));
        w.kv("max_frac", drift.max_frac);
        w.kv("mean_abs", drift.mean_abs);
      }
      w.end_object();
      w.end_object();
      w.end_object();
      if (write_file(report_out, w.str() + "\n")) {
        std::printf("report: %s\n", report_out.c_str());
      } else {
        std::fprintf(stderr, "cgsim: cannot write %s\n", report_out.c_str());
        rc = 1;
      }
    }
  }
  return rc;
}
