// User-facing facade: tune, run, and report a reliable broadcast in one
// call.  This is the "embed corrected-gossip in your runtime" API the
// paper's conclusions point at: pick a consistency level, give the system
// size and LogP parameters, and get a fully tuned broadcast.
#pragma once

#include <cstdint>
#include <string>

#include "harness/scenarios.hpp"
#include "sim/failure.hpp"

namespace cg {

/// Consistency level requested by the application (Section II).
enum class Consistency : std::uint8_t {
  kWeak,        ///< OCG: all nodes w.p. >= 1-eps, cheapest/fastest
  kChecked,     ///< CCG: all active nodes if no failure during correction
  kFailProof,   ///< FCG: all-or-nothing with up to f online failures
};

struct BroadcastOptions {
  NodeId n = 0;
  Consistency consistency = Consistency::kChecked;
  LogP logp = LogP::piz_daint();
  double eps = 6.9315e-7;   ///< failure budget for the tuning models
  int f = 1;                ///< FCG resilience
  NodeId root = 0;
  /// Shards (one worker thread each) for the sharded engine; <= 0 = auto
  /// (hardware_concurrency).  Results do not depend on it.
  int threads = 1;
  FailureSchedule failures{};
};

struct BroadcastReport {
  Algo algo = Algo::kOcg;
  Step gossip_T = 0;
  bool reached_all_active = false;
  bool delivered_all_or_nothing = true;
  double latency_us = 0;        ///< completion of the protocol
  std::int64_t messages = 0;
  NodeId active = 0;
  NodeId reached = 0;
  bool sos_triggered = false;

  std::string summary() const;
};

/// Tune parameters for the requested consistency level, execute the
/// broadcast on the multi-threaded runtime (the window-sharded engine,
/// `threads` shards), and report the outcome.
BroadcastReport reliable_broadcast(const BroadcastOptions& opts,
                                   std::uint64_t seed = 1);

}  // namespace cg
