// Phase boundaries shared by all corrected-gossip variants.
//
// Derived from the virtual time-counter algebra of Algorithms 1-3
// (see DESIGN.md Section 2 for the step model):
//   * gossip emissions occur at steps 1 .. T-1 (root colored at step 0,
//     a node colored at step c emits from step c+1, emission allowed
//     while the emission step is < T);
//   * the last gossip message is emitted at step T-1 and lands at step
//     T-1 + (L/O+1) = T + L/O, so every g-node is known by then;
//   * the correction phase's first emission is at step T + L/O + 1
//     (a node colored at exactly step T + L/O can emit from that step too,
//     so all g-nodes start the correction synchronously).
#pragma once

#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/logp.hpp"

namespace cg {

/// Last step at which a gossip message can arrive (end of coloring by gossip).
constexpr Step gossip_drain_end(Step T, const LogP& p) { return T + p.l_over_o; }

/// First correction-phase emission step.
constexpr Step corr_start(Step T, const LogP& p) { return T + p.delivery_delay(); }

/// The ONE message shape every plain-gossip emission uses (GOS and the
/// gossip phase of OCG/CCG/FCG): kGossip carrying the virtual time.
constexpr Message plain_gossip_msg(Step now) {
  Message m;
  m.tag = Tag::kGossip;
  m.time = now;
  return m;
}

}  // namespace cg
