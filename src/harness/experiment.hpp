// Monte-Carlo trial runner: repeats run_once over derived seeds and
// aggregates the metrics the paper reports (latency, work, consistency).
#pragma once

#include <cstdint>
#include <memory>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "harness/runner.hpp"
#include "sim/failure.hpp"
#include "sim/logp.hpp"

namespace cg {

/// The per-trial fault knobs a campaign scenario varies, sampled per trial
/// from one failure RNG stream (see docs/FAULTS.md; all off by default).
/// TrialSpec and FaultScenario both derive from it, so a scenario lands on
/// a spec with one base-struct assignment.
struct FaultKnobs {
  double drop_prob = 0;       ///< i.i.d. message loss probability
  double burst_loss = 0;      ///< overall Gilbert-Elliott loss rate (0 = off)
  Step burst_mean = 4;        ///< mean burst length in steps (>= 1)
  Step jitter_max = 0;        ///< per-message extra delay 0..jitter_max steps
  int pre_failures = 0;
  int online_failures = 0;
  int restarts = 0;           ///< nodes that crash and later rejoin
  int stragglers = 0;         ///< nodes with a slowed send path
  Step straggler_factor = 4;  ///< delay multiplier for straggler sends
  int partition_nodes = 0;    ///< size of a transient bidirectional partition

  // Byzantine adversaries (sim/fault/byzantine.hpp), sampled per trial
  // from the same failure RNG stream AFTER every crash-era draw (so adding
  // them never perturbs an existing schedule) and kept disjoint from the
  // crash/restart sets.
  int byz_count = 0;  ///< Byzantine nodes per trial (byz_include_root counts
                      ///< the root towards this total)
  ByzMode byz_mode = ByzMode::kEquivocator;
  bool byz_include_root = false;  ///< force the root into the Byzantine set
                                  ///< (the canonical equivocation attack)
};

struct TrialSpec : FaultKnobs {
  Algo algo = Algo::kGos;
  AlgoConfig acfg{};
  NodeId n = 0;
  NodeId root = 0;
  LogP logp{};
  RxPolicy rx = RxPolicy::kDrainAll;
  std::uint64_t seed = 1;
  int trials = 1000;
  /// Worker threads (trials are embarrassingly parallel); <= 0 = auto
  /// (hardware_concurrency).  The aggregate is byte-identical for every
  /// value - see run_trials.
  int threads = 1;
  /// Execution engine carrying each trial.  Every engine produces
  /// identical RunMetrics, so this only changes the wall-clock profile;
  /// each farm worker's EngineCache reuses the named engine across trials.
  ExecConfig exec{};
  /// Optional progress channel (obs/telemetry.hpp): run_trials beats it
  /// after every finished trial (the beat itself rate-limits output).
  /// Not owned; never attached to individual runs.
  Heartbeat* heartbeat = nullptr;

  // Failure-sampling windows (the knobs themselves are in FaultKnobs).
  Step online_horizon = 0;   ///< window for online-failure times
  bool root_can_fail = false;
  Step restart_outage = 0;   ///< steps down; 0 = auto (~2 delivery delays)
  Step partition_from = 0;   ///< partition window [from, until); until<=from
  Step partition_until = 0;  ///<   with partition_nodes>0 = auto window
  Step max_steps = 0;        ///< RunConfig::max_steps override (0 = auto)
};

struct TrialAggregate {
  std::int64_t trials = 0;

  // Timing distributions, in steps (convert with LogP::us).
  Samples t_last_colored;   ///< only trials where all active nodes colored
  Samples t_last_colored_partial;  ///< last coloring among reached nodes
                                   ///< (trials where at least one colored)
  Samples t_complete;       ///< only trials where all colored nodes exited
  Samples t_root_complete;  ///< only trials where the root completed

  SummaryStat work;             ///< msgs_total per trial
  SummaryStat work_gossip;
  SummaryStat work_correction;
  SummaryStat work_retrans;     ///< msgs_retrans per trial (reliable mode)
  SummaryStat inconsistency;    ///< share of active nodes not reached

  std::int64_t all_colored_trials = 0;
  std::int64_t all_delivered_trials = 0;
  std::int64_t sos_trials = 0;
  std::int64_t all_or_nothing_violations = 0;  ///< FCG safety failures
  /// Trials where SOS fired but still not every active node delivered:
  /// the SOS fallback itself was defeated (e.g. the flood was lost).
  std::int64_t sos_incomplete_trials = 0;
  std::int64_t hit_max_steps_trials = 0;
  std::int64_t bfb_restarts_total = 0;
  std::int64_t msgs_dropped_total = 0;  ///< backpressure drops (pull caps)
  /// Byzantine tier: trials where two correct nodes delivered different
  /// payloads (the kConsistent guarantee's violation count) and where any
  /// correct node delivered a forged digest.
  std::int64_t consistency_violations = 0;
  std::int64_t forged_delivery_trials = 0;
  std::int64_t msgs_equivocated_total = 0;
  std::int64_t msgs_forged_total = 0;
  std::int64_t msgs_suppressed_total = 0;

  void absorb(const RunMetrics& m);
  void merge(const TrialAggregate& other);

  /// Convenience: fraction of trials that reached every active node.
  double all_colored_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(all_colored_trials) /
                             static_cast<double>(trials);
  }
};

/// The exact RunConfig trial #`trial` of `spec` executes with (seed and
/// failure schedule included).  Lets callers replay a single trial with
/// extra instrumentation (trace sinks, profiles) attached.
RunConfig trial_run_config(const TrialSpec& spec, int trial);

/// In-place variant: fill `out` (reusing its vectors' capacity) instead of
/// returning a fresh RunConfig.  The trial farm's zero-alloc path.
void trial_run_config_into(const TrialSpec& spec, int trial, RunConfig& out);

/// Per-worker trial executor: owns a reused RunConfig and an EngineCache
/// so consecutive trials reset-and-reuse the engine's slabs instead of
/// reconstructing them.  After warm-up, run() performs zero heap
/// allocations for fault-free specs whose node constructor is
/// allocation-free (GOS/OCG/CCG without the reliable sublayer) - pinned
/// by tests/test_trial_farm.cpp.  Not thread-safe; make one per worker.
class TrialWorkspace {
 public:
  TrialWorkspace();
  ~TrialWorkspace();
  TrialWorkspace(TrialWorkspace&&) noexcept;
  TrialWorkspace& operator=(TrialWorkspace&&) noexcept;

  /// Execute trial #`trial` of `spec`; same result as
  /// run_once(spec.algo, spec.acfg, trial_run_config(spec, trial)).
  RunMetrics run(const TrialSpec& spec, int trial);

  /// Same, with `trace` attached to the trial's RunConfig - the campaign
  /// runner's flight recorder hooks in here.  `trace` may be null.
  RunMetrics run(const TrialSpec& spec, int trial, TraceSink* trace);

  /// The RunConfig the last run() executed (seed and fault schedule).
  const RunConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run `spec.trials` independent trials (seeded from spec.seed) on the
/// process-wide ThreadPool (spec.threads participants; <= 0 = auto).  This
/// is the one-cell campaign: the trial farm run_campaign uses, over one
/// cell asserting Guarantee::kNone (so the heartbeat's failures are the
/// truncated trials).  Defined in campaign.cpp next to that farm.
///
/// Determinism contract: per-trial results are written into a slot indexed
/// by trial number and reduced in trial order, so the aggregate - samples,
/// percentiles, every counter - is byte-identical for ANY thread count or
/// pool shape (tests/test_trial_farm.cpp).
TrialAggregate run_trials(const TrialSpec& spec);

}  // namespace cg
