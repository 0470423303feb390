// Run configuration shared by both execution engines (stepped, sharded).
// The engines differ only in *scheduling*; everything that
// defines the simulated system - size, LogP parameters, RNG seeding, failure
// schedule, network effects, receive policy - lives here so a RunConfig means
// exactly the same thing no matter which engine executes it.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/core/profile.hpp"
#include "sim/failure.hpp"
#include "sim/fault/burst_loss.hpp"
#include "sim/fault/byzantine.hpp"
#include "sim/fault/partition.hpp"
#include "sim/fault/stragglers.hpp"
#include "sim/logp.hpp"
#include "sim/trace.hpp"

namespace cg {

class Telemetry;  // obs/telemetry.hpp - per-shard counters/histograms
class Heartbeat;  // obs/telemetry.hpp - periodic progress JSON

/// How receive overhead is modeled (DESIGN.md Section 2).
enum class RxPolicy : std::uint8_t {
  kDrainAll,    ///< all pending messages processed in their arrival step
                ///< (matches the pseudo-code's "while check for receive")
  kOnePerStep,  ///< at most one receive per node per step (strict LogP o)
};

struct RunConfig {
  NodeId n = 0;             ///< N, size of the name space
  NodeId root = 0;
  LogP logp{};
  RxPolicy rx = RxPolicy::kDrainAll;
  std::uint64_t seed = 1;   ///< seeds all per-node RNG streams
  Step max_steps = 0;       ///< 0 = auto (10*N + 64*(L/O+2) + 1024)
  FailureSchedule failures{};
  bool record_node_detail = false;
  TraceSink* trace = nullptr;  ///< not owned; may be nullptr
  /// Engine self-profiling: when set, the engine fills callback counts and
  /// per-phase wall times (see sim/core/profile.hpp).  Not owned.
  EngineProfile* profile = nullptr;
  /// Scale-ready telemetry: when set, the engine records per-shard
  /// counters and log-scale histograms (coloring latency, inbox depth,
  /// boundary traffic) into it - O(1) per event, allocation-free in steady
  /// state, deterministic across engines (see obs/telemetry.hpp).  Not
  /// owned.
  Telemetry* telemetry = nullptr;
  /// Progress channel: when set, the engine emits single-line JSON
  /// progress (steps done / max) on the heartbeat's interval.  Not owned.
  Heartbeat* heartbeat = nullptr;
  /// Model extension beyond the paper: add a uniform random extra delay of
  /// 0..jitter_max steps to every message (network variance).  Protocols'
  /// phase boundaries still use the synchronized clock; the ablation bench
  /// shows how robust each algorithm is to the resulting reordering.
  Step jitter_max = 0;
  /// Model extension: deterministic per-link extra latency (e.g., a
  /// two-level rack hierarchy).  extra(from, to) must be in
  /// [0, link_extra_max] and pure.  nullptr = uniform network (the paper).
  std::function<Step(NodeId from, NodeId to)> link_extra;
  Step link_extra_max = 0;
  /// Model extension: each message is lost independently with this
  /// probability (the paper assumes reliable channels; the ablation shows
  /// which guarantees survive when that assumption breaks).  Lost messages
  /// still count as sent work.  1.0 is allowed (blackhole links - every
  /// message is lost); validate with cg::config_error() before running.
  double drop_prob = 0.0;
  /// Fault model: Gilbert-Elliott correlated burst loss per sender,
  /// applied on top of (after) the i.i.d. drop_prob draw.
  BurstLoss burst{};
  /// Fault model: per-node send-delay multipliers (slow NICs).
  std::vector<Straggler> stragglers;
  /// Fault model: transient bidirectional partitions.
  std::vector<PartitionWindow> partitions;
  /// Fault model: Byzantine adversaries - nodes whose SENDS are rewritten
  /// (silenced, equivocated, forged, spammed) while they run the honest
  /// protocol code.  Disjoint from the crash/restart sets; validated by
  /// config_error().  Decisions are pure hashes of (seed, edge, step), so
  /// Byzantine runs stay engine/shard/thread-invariant.
  ByzantineFaults byzantine{};

  Step effective_max_steps() const {
    return max_steps > 0
               ? max_steps
               : 10 * static_cast<Step>(n) + 64 * (logp.l_over_o + 2) + 1024;
  }
};

}  // namespace cg
