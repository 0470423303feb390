#include "harness/experiment.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "sim/fault/burst_loss.hpp"
#include "sim/fault/partition.hpp"
#include "sim/fault/stragglers.hpp"

namespace cg {

void TrialAggregate::absorb(const RunMetrics& m) {
  ++trials;
  if (m.t_last_colored != kNever)
    t_last_colored.add(static_cast<double>(m.t_last_colored));
  if (m.t_last_colored_partial != kNever)
    t_last_colored_partial.add(static_cast<double>(m.t_last_colored_partial));
  if (m.t_complete != kNever)
    t_complete.add(static_cast<double>(m.t_complete));
  if (m.t_root_complete != kNever)
    t_root_complete.add(static_cast<double>(m.t_root_complete));
  work.add(static_cast<double>(m.msgs_total));
  work_gossip.add(static_cast<double>(m.msgs_gossip));
  work_correction.add(static_cast<double>(m.msgs_correction));
  work_retrans.add(static_cast<double>(m.msgs_retrans));
  inconsistency.add(m.inconsistency());
  if (m.all_active_colored) ++all_colored_trials;
  if (m.all_active_delivered) ++all_delivered_trials;
  if (m.sos_triggered) {
    ++sos_trials;
    if (!m.all_active_delivered) ++sos_incomplete_trials;
  }
  if (!m.all_or_nothing_delivery()) ++all_or_nothing_violations;
  if (m.hit_max_steps) ++hit_max_steps_trials;
  bfb_restarts_total += m.bfb_restarts;
  msgs_dropped_total += m.msgs_dropped;
  if (!m.consistent_delivery) ++consistency_violations;
  if (m.n_delivered_forged > 0) ++forged_delivery_trials;
  msgs_equivocated_total += m.msgs_equivocated;
  msgs_forged_total += m.msgs_forged;
  msgs_suppressed_total += m.msgs_suppressed;
}

void TrialAggregate::merge(const TrialAggregate& o) {
  trials += o.trials;
  t_last_colored.merge(o.t_last_colored);
  t_last_colored_partial.merge(o.t_last_colored_partial);
  t_complete.merge(o.t_complete);
  t_root_complete.merge(o.t_root_complete);
  work.merge(o.work);
  work_gossip.merge(o.work_gossip);
  work_correction.merge(o.work_correction);
  work_retrans.merge(o.work_retrans);
  inconsistency.merge(o.inconsistency);
  all_colored_trials += o.all_colored_trials;
  all_delivered_trials += o.all_delivered_trials;
  sos_trials += o.sos_trials;
  all_or_nothing_violations += o.all_or_nothing_violations;
  sos_incomplete_trials += o.sos_incomplete_trials;
  hit_max_steps_trials += o.hit_max_steps_trials;
  bfb_restarts_total += o.bfb_restarts_total;
  msgs_dropped_total += o.msgs_dropped_total;
  consistency_violations += o.consistency_violations;
  forged_delivery_trials += o.forged_delivery_trials;
  msgs_equivocated_total += o.msgs_equivocated_total;
  msgs_forged_total += o.msgs_forged_total;
  msgs_suppressed_total += o.msgs_suppressed_total;
}

void trial_run_config_into(const TrialSpec& spec, int trial, RunConfig& out) {
  RunConfig& rcfg = out;
  // Reset every field a previous trial could have touched; the vectors
  // keep their capacity (the clean path never refills them, so the reused
  // config performs no heap allocation at all).
  rcfg.n = spec.n;
  rcfg.root = spec.root;
  rcfg.logp = spec.logp;
  rcfg.rx = spec.rx;
  rcfg.jitter_max = spec.jitter_max;
  rcfg.drop_prob = spec.drop_prob;
  rcfg.seed = derive_seed(spec.seed, static_cast<std::uint64_t>(trial) * 2 + 1);
  rcfg.max_steps = spec.max_steps;
  rcfg.record_node_detail = false;
  rcfg.trace = nullptr;
  rcfg.profile = nullptr;
  rcfg.telemetry = nullptr;
  rcfg.heartbeat = nullptr;
  rcfg.link_extra = nullptr;
  rcfg.link_extra_max = 0;
  rcfg.burst = BurstLoss{};
  rcfg.failures.pre_failed.clear();
  rcfg.failures.online.clear();
  rcfg.failures.restarts.clear();
  rcfg.stragglers.clear();
  rcfg.partitions.clear();
  rcfg.byzantine.nodes.clear();
  if (spec.burst_loss > 0)
    rcfg.burst = BurstLoss::from_rate(spec.burst_loss, spec.burst_mean);

  Step horizon = spec.online_horizon;
  if (horizon <= 0) horizon = spec.acfg.T + 4 * spec.logp.delivery_delay() + 32;

  // One failure RNG stream per trial; draws happen in a fixed order
  // (failures, restarts, stragglers, partition) so adding a later fault
  // class never perturbs an earlier one's schedule for the same seed.
  const bool wants_rng = spec.pre_failures > 0 || spec.online_failures > 0 ||
                         spec.restarts > 0 || spec.stragglers > 0 ||
                         spec.partition_nodes > 0 || spec.byz_count > 0;
  if (wants_rng) {
    Xoshiro256 frng(
        derive_seed(spec.seed, static_cast<std::uint64_t>(trial) * 2 + 2));
    if (spec.pre_failures > 0 || spec.online_failures > 0) {
      rcfg.failures = FailureSchedule::random(
          spec.n, spec.pre_failures, spec.online_failures, horizon, frng,
          spec.root, spec.root_can_fail);
    }
    if (spec.restarts > 0) {
      Step outage = spec.restart_outage;
      if (outage <= 0) outage = 2 * spec.logp.delivery_delay() + 4;
      rcfg.failures.add_random_restarts(spec.n, spec.restarts, horizon, outage,
                                        frng, spec.root);
    }
    if (spec.stragglers > 0) {
      rcfg.stragglers = random_stragglers(spec.n, spec.stragglers,
                                          spec.straggler_factor, frng,
                                          spec.root);
    }
    if (spec.partition_nodes > 0) {
      Step from = spec.partition_from;
      Step until = spec.partition_until;
      if (until <= from) {  // auto window: second half of the gossip phase
        from = spec.acfg.T / 2;
        until = from + std::max<Step>(horizon / 4, 1);
      }
      rcfg.partitions.push_back(random_partition(
          spec.n, spec.partition_nodes, from, until, frng, spec.root));
    }
    if (spec.byz_count > 0) {
      // Rejection-sample against the crash/restart sets so the validated
      // disjointness invariant holds by construction (validate.cpp rejects
      // overlap).  Drawn LAST so byz-free specs replay identically.
      const auto taken = [&rcfg](NodeId i) {
        for (const NodeId p : rcfg.failures.pre_failed)
          if (p == i) return true;
        for (const auto& of : rcfg.failures.online)
          if (of.node == i) return true;
        for (const auto& r : rcfg.failures.restarts)
          if (r.node == i) return true;
        for (const auto& b : rcfg.byzantine.nodes)
          if (b.node == i) return true;
        return false;
      };
      if (spec.byz_include_root && !taken(spec.root))
        rcfg.byzantine.nodes.push_back({spec.root, spec.byz_mode});
      const std::int64_t max_tries = 64 * static_cast<std::int64_t>(spec.n);
      for (std::int64_t tries = 0;
           static_cast<int>(rcfg.byzantine.nodes.size()) < spec.byz_count &&
           tries < max_tries;
           ++tries) {
        const NodeId c = frng.bounded(spec.n);
        if (c == spec.root || taken(c)) continue;
        rcfg.byzantine.nodes.push_back({c, spec.byz_mode});
      }
    }
  }
}

RunConfig trial_run_config(const TrialSpec& spec, int trial) {
  RunConfig rcfg;
  trial_run_config_into(spec, trial, rcfg);
  return rcfg;
}

// ---------------------------------------------------------------------------
// TrialWorkspace
// ---------------------------------------------------------------------------

struct TrialWorkspace::Impl {
  RunConfig rcfg;     // reused: vectors keep their capacity across trials
  EngineCache cache;  // reused: engine slabs keep their capacity too
};

TrialWorkspace::TrialWorkspace() : impl_(std::make_unique<Impl>()) {}
TrialWorkspace::~TrialWorkspace() = default;
TrialWorkspace::TrialWorkspace(TrialWorkspace&&) noexcept = default;
TrialWorkspace& TrialWorkspace::operator=(TrialWorkspace&&) noexcept = default;

RunMetrics TrialWorkspace::run(const TrialSpec& spec, int trial) {
  return run(spec, trial, nullptr);
}

RunMetrics TrialWorkspace::run(const TrialSpec& spec, int trial,
                               TraceSink* trace) {
  trial_run_config_into(spec, trial, impl_->rcfg);
  impl_->rcfg.trace = trace;
  return impl_->cache.run_once(spec.algo, spec.acfg, impl_->rcfg, spec.exec);
}

const RunConfig& TrialWorkspace::config() const { return impl_->rcfg; }

}  // namespace cg
