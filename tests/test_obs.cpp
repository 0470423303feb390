// Tests for the observability layer (src/obs/): trace sinks and their
// serialization formats, per-step time-series metrics, the analytic-drift
// check against c(t), the metrics registry, and the JSON run reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/coloring.hpp"
#include "common/stats.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/report.hpp"
#include "obs/series.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --- name round-trips -------------------------------------------------

TEST(TraceNames, EveryKindHasANameAndParsesBack) {
  for (int k = 0; k < kTraceKindCount; ++k) {
    const auto kind = static_cast<TraceEvent::Kind>(k);
    const std::string name = trace_kind_name(kind);
    EXPECT_NE(name, "?") << "kind " << k;
    TraceEvent::Kind parsed;
    ASSERT_TRUE(trace_kind_from_name(name, parsed)) << name;
    EXPECT_EQ(parsed, kind);
  }
  TraceEvent::Kind parsed;
  EXPECT_FALSE(trace_kind_from_name("bogus", parsed));
}

TEST(TraceNames, EveryTagHasANameAndParsesBack) {
  for (int t = 0; t < kTagCount; ++t) {
    const auto tag = static_cast<Tag>(t);
    const std::string name = tag_name(tag);
    EXPECT_NE(name, "?") << "tag " << t;
    Tag parsed;
    ASSERT_TRUE(tag_from_name(name, parsed)) << name;
    EXPECT_EQ(parsed, tag);
  }
  Tag parsed;
  EXPECT_FALSE(tag_from_name("bogus", parsed));
}

TEST(TraceNames, EveryTagHasAPhase) {
  for (int t = 0; t < kTagCount; ++t) {
    const obs::Phase p = obs::phase_of(static_cast<Tag>(t));
    EXPECT_GE(static_cast<int>(p), 0);
    EXPECT_LT(static_cast<int>(p), obs::kPhaseCount);
    EXPECT_STRNE(obs::phase_name(p), "?");
  }
}

// --- JSONL ------------------------------------------------------------

TEST(Jsonl, RoundTripsEveryKindAndTag) {
  std::vector<TraceEvent> events;
  for (int k = 0; k < kTraceKindCount; ++k)
    for (int t = 0; t < kTagCount; ++t)
      events.push_back(TraceEvent{.step = 31 * k + t,
                                  .kind = static_cast<TraceEvent::Kind>(k),
                                  .node = 1000 + k,
                                  .peer = t,
                                  .tag = static_cast<Tag>(t)});
  for (const auto& ev : events) {
    const std::string line = obs::to_jsonl(ev);
    TraceEvent back{};
    ASSERT_TRUE(obs::from_jsonl(line, back)) << line;
    EXPECT_EQ(back, ev) << line;
  }
}

TEST(Jsonl, RejectsMalformedLines) {
  TraceEvent ev{};
  EXPECT_FALSE(obs::from_jsonl("", ev));
  EXPECT_FALSE(obs::from_jsonl("{}", ev));
  EXPECT_FALSE(obs::from_jsonl("{\"step\":1}", ev));
  EXPECT_FALSE(obs::from_jsonl(
      R"({"step":1,"kind":"bogus","node":0,"peer":0,"tag":"gossip"})", ev));
  EXPECT_FALSE(obs::from_jsonl(
      R"({"step":1,"kind":"send","node":0,"peer":0,"tag":"bogus"})", ev));
}

TEST(Jsonl, FileSinkStreamsARunLosslessly) {
  const std::string path = temp_path("trace.jsonl");
  VectorTrace expect;
  {
    obs::JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    obs::TeeTraceSink tee;
    tee.add(&sink);
    tee.add(&expect);
    RunConfig cfg;
    cfg.n = 64;
    cfg.logp = LogP::unit();
    cfg.seed = 4;
    cfg.trace = &tee;
    AlgoConfig acfg;
    acfg.T = 20;
    run_once(Algo::kCcg, acfg, cfg);
  }  // destructor flushes + closes

  const std::string body = slurp(path);
  ASSERT_FALSE(body.empty());
  std::vector<TraceEvent> parsed;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    TraceEvent ev{};
    ASSERT_TRUE(obs::from_jsonl(body.substr(pos, eol - pos), ev));
    parsed.push_back(ev);
    pos = eol + 1;
  }
  EXPECT_EQ(parsed, expect.events());
}

// --- Chrome trace -----------------------------------------------------

TEST(ChromeTrace, WritesWellFormedJsonWithPerNodeTracks) {
  const std::string path = temp_path("trace.json");
  obs::ChromeTraceSink sink(path, /*us_per_step=*/2.0);
  RunConfig cfg;
  cfg.n = 12;
  cfg.logp = LogP::unit();
  cfg.seed = 3;
  cfg.trace = &sink;
  cfg.failures.pre_failed = {7};
  AlgoConfig acfg;
  acfg.T = 4;
  acfg.fcg_f = 1;
  run_once(Algo::kFcg, acfg, cfg);
  ASSERT_TRUE(sink.close());
  EXPECT_TRUE(sink.close());  // idempotent

  const std::string body = slurp(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  // One metadata track per node, phase categories, both event types.
  EXPECT_NE(body.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(body.find("\"node 0\""), std::string::npos);
  EXPECT_NE(body.find("\"node 11\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"gossip\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"correction\""), std::string::npos);
  // Braces and brackets balance (cheap well-formedness check; none of the
  // emitted strings contain braces).
  std::int64_t depth = 0, sq = 0;
  for (const char c : body) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++sq;
    if (c == ']') --sq;
    ASSERT_GE(depth, 0);
    ASSERT_GE(sq, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(sq, 0);
}

// --- counting sink ----------------------------------------------------

TEST(CountingSink, AgreesWithVectorTraceAndRunMetrics) {
  obs::CountingTraceSink count;
  VectorTrace vec;
  obs::TeeTraceSink tee;
  tee.add(&count);
  tee.add(&vec);
  RunConfig cfg;
  cfg.n = 100;
  cfg.logp = LogP::unit();
  cfg.seed = 8;
  cfg.trace = &tee;
  AlgoConfig acfg;
  acfg.T = 18;
  acfg.ocg_corr_sends = 8;
  const RunMetrics m = run_once(Algo::kOcg, acfg, cfg);

  EXPECT_EQ(count.total(), static_cast<std::int64_t>(vec.events().size()));
  EXPECT_EQ(count.count(TraceEvent::Kind::kSend), m.msgs_total);
  EXPECT_EQ(count.sends(obs::Phase::kGossip), m.msgs_gossip);
  EXPECT_EQ(count.sends(obs::Phase::kCorrection), m.msgs_correction);
  EXPECT_EQ(count.sends(obs::Phase::kSos), m.msgs_sos);
  EXPECT_EQ(count.sends(obs::Phase::kTree), m.msgs_tree);
  EXPECT_EQ(count.count(TraceEvent::Kind::kColored), m.n_colored);

  count.clear();
  EXPECT_EQ(count.total(), 0);
}

// --- step series ------------------------------------------------------

TEST(StepSeries, TotalsMatchRunMetrics) {
  obs::StepSeries series;
  RunConfig cfg;
  cfg.n = 128;
  cfg.logp = LogP{.l_over_o = 2, .o_us = 1.0};
  cfg.seed = 21;
  cfg.trace = &series;
  AlgoConfig acfg;
  acfg.T = 22;
  const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);

  ASSERT_GT(series.steps(), 0);
  const auto colored = series.colored_cumulative();
  EXPECT_EQ(colored.back(), m.n_colored);
  EXPECT_EQ(colored.front(), 1);  // root at step 0

  std::int64_t sends = 0, gossip = 0, corr = 0;
  for (Step s = 0; s < series.steps(); ++s) {
    sends += series.sends_total()[static_cast<std::size_t>(s)];
    gossip += series.sends(obs::Phase::kGossip)[static_cast<std::size_t>(s)];
    corr += series.sends(obs::Phase::kCorrection)[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(sends, m.msgs_total);
  EXPECT_EQ(gossip, m.msgs_gossip);
  EXPECT_EQ(corr, m.msgs_correction);

  // In-flight residue counts sends never processed: here no wire loss, so
  // the residue is exactly the tail of ring messages that reached nodes
  // which had already completed (at most one per node).
  EXPECT_GE(series.in_flight().back(), 0);
  EXPECT_LT(series.in_flight().back(), 128);
  // CCG's ring correction visits every node; the watermark ends at the
  // number of distinct correction senders (<= n, > 0 here).
  EXPECT_GT(series.ring_watermark().back(), 0);
  EXPECT_LE(series.ring_watermark().back(), 128);

  // Serialization smoke: header + one row per step; JSON parses shape-wise.
  const std::string csv = series.to_csv();
  EXPECT_EQ(static_cast<Step>(std::count(csv.begin(), csv.end(), '\n')),
            series.steps() + 1);
  const std::string json = series.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"colored\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_watermark\""), std::string::npos);
}

// The sharded engine flushes per-shard trace buffers window by window (not
// in step order); the bucketed series must still match the stepped run.
TEST(StepSeries, ShardedEngineMergePathMatchesSerial) {
  AlgoConfig acfg;
  acfg.T = 16;
  auto run_series = [&](EngineKind kind, int shards, obs::StepSeries& out) {
    RunConfig cfg;
    cfg.n = 96;
    cfg.logp = LogP::unit();
    cfg.seed = 13;
    cfg.jitter_max = 1;
    cfg.drop_prob = 0.05;
    cfg.trace = &out;
    run_once(Algo::kFcg, acfg, cfg, {kind, shards});
  };
  obs::StepSeries serial;
  run_series(EngineKind::kStepped, 1, serial);
  for (const int shards : {3, 5}) {
    obs::StepSeries sh;
    run_series(EngineKind::kSharded, shards, sh);
    SCOPED_TRACE(shards);
    EXPECT_EQ(serial.colored_cumulative(), sh.colored_cumulative());
    EXPECT_EQ(serial.sends_total(), sh.sends_total());
    EXPECT_EQ(serial.delivers(), sh.delivers());
    EXPECT_EQ(serial.in_flight(), sh.in_flight());
    EXPECT_EQ(serial.ring_watermark(), sh.ring_watermark());
  }
}

TEST(StepSeries, WithLossInFlightEndsPositive) {
  obs::StepSeries series;
  RunConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::unit();
  cfg.seed = 2;
  cfg.drop_prob = 0.2;
  cfg.trace = &series;
  AlgoConfig acfg;
  acfg.T = 14;
  run_once(Algo::kGos, acfg, cfg);
  // Lost messages are sends that never deliver - visible as residue.
  EXPECT_GT(series.in_flight().back(), 0);
}

// --- drift vs the analytic c(t) ---------------------------------------

// Acceptance check: a GOS run's observed coloring curve stays close to the
// paper's recurrence c(t).  Single trials carry sampling noise, so the
// tolerance is loose-ish per seed and tighter on the mean.
TEST(Drift, GossipColoringTracksAnalyticCurve) {
  const NodeId n = 1024;
  const LogP logp{.l_over_o = 2, .o_us = 1.0};
  AlgoConfig acfg;
  acfg.T = 45;

  double sum_frac = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    obs::StepSeries series;
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = logp;
    cfg.seed = seed;
    cfg.trace = &series;
    const RunMetrics m = run_once(Algo::kGos, acfg, cfg);
    const obs::DriftReport drift =
        obs::compare_to_model(series, n, m.n_active, acfg.T, logp);
    EXPECT_GT(drift.compared_steps, acfg.T);
    EXPECT_LT(drift.max_frac, 0.08) << "seed " << seed;
    sum_frac += drift.max_frac;
  }
  EXPECT_LT(sum_frac / 3.0, 0.05);
}

TEST(Drift, ReportsZeroAgainstItself) {
  std::vector<std::int64_t> observed = {1, 2, 4, 8};
  std::vector<double> model = {1, 2, 4, 8};
  const obs::DriftReport d = obs::compare_to_model(observed, model, 8);
  EXPECT_EQ(d.compared_steps, 4);
  EXPECT_EQ(d.max_abs, 0);
  EXPECT_EQ(d.max_frac, 0);
  EXPECT_EQ(d.mean_abs, 0);
}

TEST(Drift, FindsTheWorstStep) {
  std::vector<std::int64_t> observed = {1, 2, 10, 8};
  std::vector<double> model = {1, 3, 4, 8, 99};  // extra tail ignored
  const obs::DriftReport d = obs::compare_to_model(observed, model, 10);
  EXPECT_EQ(d.compared_steps, 4);
  EXPECT_EQ(d.max_abs, 6);
  EXPECT_EQ(d.max_abs_at, 2);
  EXPECT_DOUBLE_EQ(d.max_frac, 0.6);
  EXPECT_DOUBLE_EQ(d.mean_abs, (0 + 1 + 6 + 0) / 4.0);
}

// --- stats: percentiles and SummaryStat -------------------------------

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.p50(), 50);
  EXPECT_EQ(s.p90(), 90);
  EXPECT_EQ(s.p99(), 99);
}

TEST(Stats, SummaryStatMatchesItsParts) {
  SummaryStat sum;
  RunningStat run;
  Samples samp;
  for (const double x : {5.0, 1.0, 9.0, 3.0, 7.0, 2.0}) {
    sum.add(x);
    run.add(x);
    samp.add(x);
  }
  EXPECT_EQ(sum.count(), 6u);
  EXPECT_DOUBLE_EQ(sum.mean(), run.mean());
  EXPECT_DOUBLE_EQ(sum.stddev(), run.stddev());
  EXPECT_DOUBLE_EQ(sum.ci95_halfwidth(), run.ci95_halfwidth());
  EXPECT_EQ(sum.min(), 1.0);
  EXPECT_EQ(sum.max(), 9.0);
  EXPECT_EQ(sum.p50(), samp.p50());
  EXPECT_EQ(sum.p99(), samp.p99());

  SummaryStat other;
  other.add(100.0);
  sum.merge(other);
  EXPECT_EQ(sum.count(), 7u);
  EXPECT_EQ(sum.max(), 100.0);
  EXPECT_EQ(sum.p99(), 100.0);
}

// --- partial-coloring latency (satellite fix) --------------------------

TEST(PartialColoring, DefaultIsNeverNotZero) {
  EXPECT_EQ(RunMetrics{}.t_last_colored_partial, kNever);
}

// With every other node pre-failed only the root ever colors - at step 0,
// which the old `0` default could not distinguish from "nobody colored".
TEST(PartialColoring, RootOnlyRunReportsStepZero) {
  RunConfig cfg;
  cfg.n = 32;
  cfg.logp = LogP::unit();
  cfg.seed = 1;
  for (NodeId i = 1; i < cfg.n; ++i) cfg.failures.pre_failed.push_back(i);
  AlgoConfig acfg;
  acfg.T = 10;
  const RunMetrics m = run_once(Algo::kGos, acfg, cfg);
  EXPECT_EQ(m.n_colored, 1);
  EXPECT_EQ(m.t_last_colored_partial, 0);
  EXPECT_NE(m.t_last_colored_partial, kNever);
}

TEST(PartialColoring, AggregateCollectsSamples) {
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.n = 64;
  spec.logp = LogP::unit();
  spec.acfg.T = 14;
  spec.trials = 10;
  spec.seed = 5;
  const TrialAggregate agg = run_trials(spec);
  EXPECT_EQ(agg.t_last_colored_partial.count(), 10u);
  // Everyone colored => the partial and full latencies coincide per trial.
  EXPECT_EQ(agg.all_colored_trials, 10);
  EXPECT_EQ(agg.t_last_colored_partial.max(), agg.t_last_colored.max());
}

// --- metrics registry and JSON reports --------------------------------

TEST(Registry, FillsFromARunAndSerializes) {
  EngineProfile prof;
  RunConfig cfg;
  cfg.n = 80;
  cfg.logp = LogP::unit();
  cfg.seed = 6;
  cfg.record_node_detail = true;
  cfg.profile = &prof;
  AlgoConfig acfg;
  acfg.T = 15;
  const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);

  obs::MetricsRegistry reg;
  obs::fill_registry(reg, m, &prof);
  EXPECT_EQ(reg.counter("nodes.colored").value(), m.n_colored);
  EXPECT_EQ(reg.counter("msgs.total").value(), m.msgs_total);
  EXPECT_EQ(reg.counter("engine.events").value(), prof.events());
  EXPECT_EQ(reg.histogram("node.colored_at").count(),
            static_cast<std::size_t>(m.n_colored));
  EXPECT_GT(prof.events(), 0);
  EXPECT_GT(prof.events_per_sec(), 0);
  EXPECT_GT(prof.wall_s, 0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes.colored\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.events_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"node.colored_at\""), std::string::npos);
}

TEST(Report, RunMetricsJsonUsesNullForNever) {
  RunMetrics m;
  m.n_total = 4;
  m.n_active = 4;
  m.n_colored = 1;
  const std::string json = obs::to_json(m);
  EXPECT_NE(json.find("\"t_last_colored\":null"), std::string::npos);
  EXPECT_NE(json.find("\"t_complete\":null"), std::string::npos);
  EXPECT_NE(json.find("\"inconsistency\":0.75"), std::string::npos);

  m.t_last_colored = 17;
  EXPECT_NE(obs::to_json(m).find("\"t_last_colored\":17"), std::string::npos);
}

TEST(Report, TrialAggregateJsonCarriesPercentiles) {
  TrialSpec spec;
  spec.algo = Algo::kOcg;
  spec.n = 48;
  spec.logp = LogP::unit();
  spec.acfg.T = 12;
  spec.acfg.ocg_corr_sends = 8;
  spec.trials = 8;
  const std::string json = obs::to_json(run_trials(spec));
  EXPECT_NE(json.find("\"trials\":8"), std::string::npos);
  EXPECT_NE(json.find("\"t_last_colored_partial\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"stddev\""), std::string::npos);
  EXPECT_NE(json.find("\"all_colored_rate\":1"), std::string::npos);
}

// --- JSON writer ------------------------------------------------------

TEST(JsonWriter, EscapesAndNests) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\n\t\x01");
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value(true);
  w.null();
  w.end_array();
  w.kv("f", 0.5);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\","
            "\"arr\":[1,true,null],\"f\":0.5}");
}

}  // namespace
}  // namespace cg
