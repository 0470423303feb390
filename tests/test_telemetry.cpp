// Scale-ready telemetry: LogHistogram bucket math, the per-shard registry's
// fingerprint (its cross-engine determinism over random fault stacks is
// checked by the differential sweep, test_differential.cpp), the
// deterministic reservoir trace sampler,
// the flight recorder's ring + dump/parse round-trip and its campaign
// integration (a forced guarantee failure produces an artifact that is the
// exact suffix of the stepped replay), the heartbeat channel, the streaming
// ChromeTraceSink, the StepSeries stride, and the zero-steady-state-alloc
// contract with telemetry attached.
//
// Carries the ctest label `sanitize`: the tsan preset exercises the
// multi-shard recording paths and concurrent heartbeats under
// ThreadSanitizer (the allocation guard of alloc_counter.hpp compiles out
// there).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "obs/sampling_sink.hpp"
#include "obs/series.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- LogHistogram ----------------------------------------------------------

TEST(LogHistogram, LinearRangeIsExact) {
  for (std::int64_t v = 0; v < LogHistogram::kLinear; ++v) {
    EXPECT_EQ(LogHistogram::bucket_of(v), static_cast<int>(v));
    EXPECT_EQ(LogHistogram::bucket_lo(static_cast<int>(v)), v);
  }
}

TEST(LogHistogram, BucketBoundsAreConsistent) {
  for (int b = 0; b < LogHistogram::kBuckets - 1; ++b) {
    const std::int64_t lo = LogHistogram::bucket_lo(b);
    const std::int64_t hi = LogHistogram::bucket_hi(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(LogHistogram::bucket_of(lo), b);
    EXPECT_EQ(LogHistogram::bucket_of(hi - 1), b);
    if (b + 1 < LogHistogram::kBuckets - 1)
      EXPECT_EQ(LogHistogram::bucket_of(hi), b + 1);
  }
  // Negative values clamp to bucket 0; huge values hit the overflow bucket.
  EXPECT_EQ(LogHistogram::bucket_of(-5), 0);
  EXPECT_EQ(LogHistogram::bucket_of(std::int64_t{1} << 62),
            LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, RelativeErrorBoundedByQuarter) {
  // Each sub-bucket spans at most 25% of its lower bound (the HDR-style
  // guarantee the latency quantiles rely on).
  for (int b = LogHistogram::kLinear; b < LogHistogram::kBuckets - 1; ++b) {
    const double lo = static_cast<double>(LogHistogram::bucket_lo(b));
    const double hi = static_cast<double>(LogHistogram::bucket_hi(b));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-9) << "bucket " << b;
  }
}

TEST(LogHistogram, MergeIsCommutativeAndOrderFree) {
  LogHistogram a, b, both;
  for (std::int64_t v : {0, 3, 31, 32, 40, 100, 5000, 1 << 20}) {
    a.record(v);
    both.record(v);
  }
  for (std::int64_t v : {7, 7, 7, 63, 64, 12345}) {
    b.record(v);
    both.record(v);
  }
  LogHistogram ab = a;
  ab.merge(b);
  LogHistogram ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_TRUE(ab == both);
  EXPECT_EQ(ab.count(), 14);
}

TEST(LogHistogram, QuantilesFromKnownDistribution) {
  LogHistogram h;
  for (std::int64_t v = 0; v < 100; ++v) h.record(v % 10);  // 0..9 uniform
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  EXPECT_EQ(h.quantile(0.0), 0);
  EXPECT_EQ(h.quantile(0.5), 4);
  EXPECT_EQ(h.quantile(1.0), 9);
  EXPECT_EQ(h.max_bound(), 9);
}

// --- Telemetry registry ----------------------------------------------------

TEST(Telemetry, InboxDepthGroupsPerNodeStep) {
  Telemetry t;
  t.attach(4, 2);
  // Node 1: 3 deliveries at step 5, then 1 at step 7.  Node 2: 2 at step 5.
  t.record_delivery(0, 1, 5);
  t.record_delivery(0, 1, 5);
  t.record_delivery(1, 1, 5);  // same node from another cell: same group
  t.record_delivery(1, 2, 5);
  t.record_delivery(1, 2, 5);
  t.record_delivery(0, 1, 7);  // flushes node 1's step-5 group (count 3)
  RunMetrics m;
  t.finish_run(m);
  const LogHistogram& h = t.merged().inbox_depth;
  EXPECT_EQ(h.count(), 3);                // groups: (1,5)=3, (2,5)=2, (1,7)=1
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(t.merged().deliveries, 6);
}

TEST(Telemetry, FingerprintSeparatesDifferentRuns) {
  Telemetry a, b;
  a.attach(8, 1);
  b.attach(8, 1);
  RunMetrics m;
  a.record_colored(0, 3);
  b.record_colored(0, 4);
  a.finish_run(m);
  b.finish_run(m);
  EXPECT_NE(a.invariant_fingerprint(), b.invariant_fingerprint());
}

TEST(Telemetry, WindowBoundaryExcludedFromFingerprint) {
  Telemetry a, b;
  a.attach(8, 2);
  b.attach(8, 2);
  RunMetrics m;
  a.record_colored(0, 3);
  b.record_colored(1, 3);              // different cell, same event
  b.record_window_boundary(0, 17);     // layout-dependent, must not leak
  a.finish_run(m);
  b.finish_run(m);
  EXPECT_EQ(a.invariant_fingerprint(), b.invariant_fingerprint());
}

// --- SamplingTraceSink -----------------------------------------------------

TEST(SamplingTraceSink, OrderIndependentOverMultisets) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 500; ++i) {
    TraceEvent ev;
    ev.step = i % 37;
    ev.kind = (i % 3 == 0) ? TraceEvent::Kind::kSend
                           : TraceEvent::Kind::kDeliver;
    ev.node = static_cast<NodeId>(i % 50);
    ev.peer = static_cast<NodeId>((i * 7) % 50);
    ev.tag = (i % 2 == 0) ? Tag::kGossip : Tag::kFwd;
    events.push_back(ev);
  }
  obs::SamplingTraceSink fwd(42, 32), rev(42, 32);
  for (const auto& ev : events) fwd.on_event(ev);
  for (auto it = events.rbegin(); it != events.rend(); ++it)
    rev.on_event(*it);
  EXPECT_EQ(fwd.seen(), 500);
  EXPECT_EQ(fwd.size(), 32u);
  EXPECT_EQ(obs::to_jsonl(fwd.sample()), obs::to_jsonl(rev.sample()));

  // A different seed picks a different subset (overwhelmingly likely).
  obs::SamplingTraceSink other(43, 32);
  for (const auto& ev : events) other.on_event(ev);
  EXPECT_NE(obs::to_jsonl(fwd.sample()), obs::to_jsonl(other.sample()));
}

TEST(SamplingTraceSink, KeepsEverythingUnderCapacity) {
  obs::SamplingTraceSink s(7, 100);
  for (int i = 0; i < 60; ++i) {
    TraceEvent ev;
    ev.step = i;
    ev.kind = TraceEvent::Kind::kColored;
    ev.node = static_cast<NodeId>(i);
    s.on_event(ev);
  }
  EXPECT_EQ(s.size(), 60u);
  const auto sample = s.sample();
  ASSERT_EQ(sample.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)].step, i);
}

// --- FlightRecorder --------------------------------------------------------

std::vector<TraceEvent> synthetic_events(int count) {
  std::vector<TraceEvent> v;
  for (int i = 0; i < count; ++i) {
    TraceEvent ev;
    ev.step = i;
    ev.kind = TraceEvent::Kind::kSend;
    ev.node = static_cast<NodeId>(i % 9);
    ev.peer = static_cast<NodeId>((i + 1) % 9);
    ev.tag = Tag::kGossip;
    v.push_back(ev);
  }
  return v;
}

TEST(FlightRecorder, RingKeepsMostRecentInArrivalOrder) {
  obs::FlightRecorder fr(8);
  const auto events = synthetic_events(20);
  for (const auto& ev : events) fr.on_event(ev);
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.dropped(), 12);
  std::vector<TraceEvent> snap;
  fr.snapshot(snap);
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(snap[static_cast<size_t>(i)] ==
                events[static_cast<size_t>(12 + i)]);
  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.dropped(), 0);
  EXPECT_EQ(fr.capacity(), 8u);
}

TEST(FlightRecorder, DumpRoundTripsThroughFromJsonl) {
  obs::FlightRecorder fr(16);
  const auto events = synthetic_events(10);
  for (const auto& ev : events) fr.on_event(ev);
  const std::string path = tmp_path("flight_dump.jsonl");
  obs::FlightRecorder::DumpInfo info;
  info.rerun = "./fault_campaign --replay=a/b/3";
  info.scenario = "iid-loss";
  info.entry = "CCG+rel";
  info.trial = 3;
  info.seed = 99;
  ASSERT_TRUE(fr.dump_jsonl(path, info));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"flight_recorder\":1"), std::string::npos);
  EXPECT_NE(header.find("\"scenario\":\"iid-loss\""), std::string::npos);
  EXPECT_NE(header.find("\"rerun\":\"./fault_campaign --replay=a/b/3\""),
            std::string::npos);
  std::vector<TraceEvent> parsed;
  std::string line;
  while (std::getline(in, line)) {
    TraceEvent ev;
    ASSERT_TRUE(obs::from_jsonl(line, ev)) << line;
    parsed.push_back(ev);
  }
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_TRUE(parsed[i] == events[i]);
}

// --- Campaign forensics ----------------------------------------------------

// A cell designed to violate its guarantee: plain CCG claims all-reached
// under heavy i.i.d. loss, which it cannot hold without the sublayer.
TEST(CampaignForensics, ForcedFailureDumpsReplayableArtifact) {
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 5;
  cfg.trials = 8;
  cfg.threads = 2;
  cfg.artifacts_dir = tmp_path("artifacts");
  cfg.rerun_prefix = "./fault_campaign --n=64 --seed=5 --trials=8";
  std::error_code ignored;
  std::filesystem::create_directories(cfg.artifacts_dir, ignored);

  // Blackhole links (run_config.hpp allows drop_prob = 1.0): nothing ever
  // arrives, so every trial both fails all-reached and truncates - a
  // deterministic forced failure.  (Finite loss rates are NOT reliable
  // here: CCG's checked ring sweep retries until acknowledged, so it
  // eventually colors everyone under any loss bursts end.)
  FaultScenario sc;
  sc.name = "heavy-loss";
  sc.drop_prob = 1.0;
  CampaignEntry entry;
  entry.label = "CCG";
  entry.algo = Algo::kCcg;
  entry.acfg.T = 20;
  entry.guarantee = Guarantee::kAllReached;

  const CampaignResult result = run_campaign(cfg, {sc}, {entry});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].pass);
  ASSERT_FALSE(result.artifacts.empty());
  EXPECT_LE(static_cast<int>(result.artifacts.size()),
            cfg.max_artifacts_per_cell);

  for (const auto& art : result.artifacts) {
    // Parse the artifact back.
    std::ifstream in(art.path);
    ASSERT_TRUE(in.good()) << art.path;
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("\"flight_recorder\":1"), std::string::npos);
    EXPECT_NE(header.find("--replay=heavy-loss/CCG/"), std::string::npos);
    std::vector<TraceEvent> recorded;
    std::string line;
    while (std::getline(in, line)) {
      TraceEvent ev;
      ASSERT_TRUE(obs::from_jsonl(line, ev)) << line;
      recorded.push_back(ev);
    }
    ASSERT_FALSE(recorded.empty());

    // Replay the exact trial on the stepped engine: the ring must be the
    // exact suffix of the full trace (stepped emission order IS arrival
    // order, and the campaign carries its trials on the stepped engine).
    const TrialSpec spec = campaign_trial_spec(cfg, sc, entry);
    RunConfig rcfg = trial_run_config(spec, art.trial);
    EXPECT_EQ(rcfg.seed, art.seed);
    VectorTrace full;
    rcfg.trace = &full;
    const RunMetrics m = run_once(spec.algo, spec.acfg, rcfg);
    EXPECT_TRUE(trial_violates(result.cells[0].guarantee, m));
    ASSERT_GE(full.events().size(), recorded.size());
    const std::size_t off = full.events().size() - recorded.size();
    for (std::size_t i = 0; i < recorded.size(); ++i)
      ASSERT_TRUE(recorded[i] == full.events()[off + i])
          << art.path << " event " << i;
  }

  // The campaign result itself is unchanged by forensics instrumentation.
  CampaignConfig plain = cfg;
  plain.artifacts_dir.clear();
  const CampaignResult bare = run_campaign(plain, {sc}, {entry});
  EXPECT_TRUE(bare.artifacts.empty());
  EXPECT_EQ(obs::to_json(bare.cells[0].agg), obs::to_json(result.cells[0].agg));
}

// Root equivocation splits CCG's delivered payload in every trial, so the
// per-cell cap decides which violating trials are kept: always the lowest
// trial numbers, whatever order the workers finished them in.
TEST(CampaignForensics, ArtifactSetIndependentOfThreads) {
  FaultScenario sc;
  sc.name = "root-equiv";
  sc.byz_count = 1;
  sc.byz_include_root = true;
  CampaignEntry entry;
  entry.label = "CCG";
  entry.algo = Algo::kCcg;
  entry.acfg.T = 24;
  entry.guarantee = Guarantee::kConsistent;
  for (const int threads : {1, 2, 3, 4}) {
    CampaignConfig cfg;
    cfg.n = 512;
    cfg.logp = LogP::piz_daint();
    cfg.seed = 7;
    cfg.trials = 32;
    cfg.threads = threads;
    cfg.max_artifacts_per_cell = 3;
    cfg.artifacts_dir = tmp_path("artifacts_t" + std::to_string(threads));
    std::error_code ignored;
    std::filesystem::remove_all(cfg.artifacts_dir, ignored);
    std::filesystem::create_directories(cfg.artifacts_dir, ignored);

    const CampaignResult result = run_campaign(cfg, {sc}, {entry});
    ASSERT_EQ(result.artifacts.size(), 3u) << "threads " << threads;
    for (int t = 0; t < 3; ++t)
      EXPECT_EQ(result.artifacts[static_cast<std::size_t>(t)].trial, t)
          << "threads " << threads;
    EXPECT_EQ(std::distance(
                  std::filesystem::directory_iterator(cfg.artifacts_dir),
                  std::filesystem::directory_iterator{}),
              3)
        << "threads " << threads;
  }
}

TEST(CampaignForensics, TrialViolatesMatchesPredicates) {
  RunMetrics m;
  m.hit_max_steps = true;
  EXPECT_TRUE(trial_violates(Guarantee::kNone, m));  // truncation always dumps
  m.hit_max_steps = false;
  EXPECT_FALSE(trial_violates(Guarantee::kNone, m));
  m.all_active_colored = false;
  EXPECT_TRUE(trial_violates(Guarantee::kAllReached, m));
  m.all_active_colored = true;
  EXPECT_FALSE(trial_violates(Guarantee::kAllReached, m));
}

// --- Heartbeat -------------------------------------------------------------

TEST(Heartbeat, RateLimitsAndForcesFinalLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    Heartbeat hb(f, 3600.0, "test");
    for (int i = 0; i < 100; ++i) hb.beat(i + 1, 100, 0);
    EXPECT_EQ(hb.emitted(), 1);  // first beat emits, the rest are gated
    hb.force(100, 100, 2);
    EXPECT_EQ(hb.emitted(), 2);
  }
  std::rewind(f);
  char buf[512];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  const std::string line(buf);
  EXPECT_NE(line.find("\"heartbeat\":\"test\""), std::string::npos);
  EXPECT_NE(line.find("\"done\":1"), std::string::npos);
  EXPECT_NE(line.find("\"rss_mb\":"), std::string::npos);
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_NE(std::string(buf).find("\"failures\":2"), std::string::npos);
  std::fclose(f);
}

TEST(Heartbeat, EngineAndFarmChannelsEmit) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  Heartbeat hb(f, 0.0, "engine");  // interval 0: every beat emits
  RunConfig cfg;
  cfg.n = 32;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 3;
  cfg.heartbeat = &hb;
  AlgoConfig acfg;
  acfg.T = 10;
  run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
  EXPECT_GT(hb.emitted(), 0);

  const std::int64_t engine_beats = hb.emitted();
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.acfg = acfg;
  spec.n = 32;
  spec.logp = LogP::piz_daint();
  spec.seed = 3;
  spec.trials = 4;
  spec.threads = 2;
  spec.heartbeat = &hb;
  run_trials(spec);
  EXPECT_GE(hb.emitted(), engine_beats + 4);
  std::fclose(f);
}

// Interval 0 means "emit every beat", also when several threads beat at
// once (the trial farm's workers share one heartbeat).
TEST(Heartbeat, ConcurrentBeatsAtIntervalZeroAllEmit) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  Heartbeat hb(f, 0.0, "test");
  constexpr int kThreads = 4;
  constexpr int kBeats = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hb] {
      for (int i = 0; i < kBeats; ++i) hb.beat(i + 1, kBeats, 0);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(hb.emitted(), kThreads * kBeats);
  std::fclose(f);
}

// --- Streaming ChromeTraceSink --------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ChromeTraceSink, StreamsInChunksAndStaysWellFormed) {
  const std::string path = tmp_path("stream_trace.json");
  {
    obs::ChromeTraceSink sink(path, 1.0, /*flush_threshold=*/4);
    for (const auto& ev : synthetic_events(11)) sink.on_event(ev);
    EXPECT_TRUE(sink.close());
    EXPECT_EQ(sink.emitted(), 11);
    EXPECT_EQ(sink.dropped(), 0);
  }
  const std::string json = read_file(path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_EQ(json.find(",,"), std::string::npos);
  EXPECT_EQ(json.find("[,"), std::string::npos);
}

TEST(ChromeTraceSink, HardCapWritesTruncationMarker) {
  const std::string path = tmp_path("capped_trace.json");
  {
    obs::ChromeTraceSink sink(path, 1.0, /*flush_threshold=*/4,
                              /*max_events=*/3);
    for (const auto& ev : synthetic_events(10)) sink.on_event(ev);
    EXPECT_TRUE(sink.close());
    EXPECT_EQ(sink.emitted(), 3);
    EXPECT_EQ(sink.dropped(), 7);
  }
  const std::string json = read_file(path);
  EXPECT_NE(json.find("trace_truncated"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":7"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

TEST(ChromeTraceSink, EmptyRunStillProducesValidFile) {
  const std::string path = tmp_path("empty_trace.json");
  {
    obs::ChromeTraceSink sink(path);
    EXPECT_TRUE(sink.close());
  }
  const std::string json = read_file(path);
  EXPECT_NE(json.find("\"traceEvents\":[]}"), std::string::npos);
}

// --- StepSeries stride ------------------------------------------------------

TEST(StepSeries, StrideFoldsBucketsAndPreservesTotals) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 11;
  AlgoConfig acfg;
  acfg.T = 16;

  obs::StepSeries fine;
  {
    RunConfig c = cfg;
    c.trace = &fine;
    run_once(Algo::kCcg, acfg, c, {EngineKind::kStepped, 1});
  }
  obs::StepSeries coarse;
  coarse.set_stride(4);
  coarse.set_track_ring(false);
  {
    RunConfig c = cfg;
    c.trace = &coarse;
    run_once(Algo::kCcg, acfg, c, {EngineKind::kStepped, 1});
  }
  ASSERT_GT(fine.steps(), 0);
  EXPECT_EQ(coarse.steps(), (fine.steps() + 3) / 4);
  // Totals are invariant under decimation.
  const auto sum = [](const std::vector<std::int64_t>& v) {
    std::int64_t s = 0;
    for (const auto x : v) s += x;
    return s;
  };
  EXPECT_EQ(sum(fine.sends_total()), sum(coarse.sends_total()));
  EXPECT_EQ(sum(fine.newly_colored()), sum(coarse.newly_colored()));
  EXPECT_EQ(fine.colored_cumulative().back(),
            coarse.colored_cumulative().back());
  // Ring tracking disabled: series reads all zeros.
  for (const auto x : coarse.ring_watermark()) EXPECT_EQ(x, 0);
  // CSV step column advances by the stride.
  const std::string csv = coarse.to_csv();
  EXPECT_EQ(csv.find("\n0,"), csv.find('\n'));
  EXPECT_NE(csv.find("\n4,"), std::string::npos);
}

// --- Zero steady-state allocations with telemetry attached ------------------

#if CG_ALLOC_COUNTING

TEST(TelemetryAlloc, SteadyStateTrialsAllocateNothing) {
  Telemetry tel;
  EngineCache cache;
  RunConfig cfg;
  cfg.n = 128;
  cfg.logp = LogP::piz_daint();
  cfg.telemetry = &tel;
  AlgoConfig acfg;
  acfg.T = 14;
  // Warm pass: slabs and telemetry arrays reach their high-water
  // capacities for these exact runs; the steady pass replays the same
  // seeds and must reuse every buffer (the test_trial_farm idiom).
  for (int t = 0; t < 5; ++t) {
    cfg.seed = static_cast<std::uint64_t>(t + 1);
    cache.run_once(Algo::kCcg, acfg, cfg);
  }
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int t = 0; t < 5; ++t) {
    cfg.seed = static_cast<std::uint64_t>(t + 1);
    cache.run_once(Algo::kCcg, acfg, cfg);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_EQ(tel.runs(), 10);
}

#endif  // CG_ALLOC_COUNTING

}  // namespace
}  // namespace cg
