// The sender side of every emission, shared by both execution engines.
//
// Wire::send does, in this order, everything that happens to a message
// between the protocol's ctx.send() and the engine placing it in a
// delivery calendar:
//   1. the range and self-send checks;
//   2. the one-emission-per-node-per-step rule (the LogP overhead O charged
//      per message; DESIGN.md Section 2, rule R1), kept as one last-send
//      step per node so it holds however many nodes interleave their sends
//      within a step;
//   3. the payload stamp (the sender's held digest, when the protocol left
//      it 0);
//   4. the Byzantine transform (sim/fault/byzantine.hpp), which may rewrite
//      the message and redirect its destination;
//   5. the per-tag message counts and the send-side trace events (send,
//      equivocated, forged, lost);
//   6. the NetworkModel route: the delivery step, or kDropped.
//
// Each engine's do_send then only decides WHERE the message waits - a
// calendar slot on the stepped engine; its own calendar or a boundary
// outbox on the sharded one.
//
// Thread-safety contract (sharded engine): send(from, ...) touches only the
// sender's R1 slot and the sender's NetworkModel streams, the Byzantine
// transform is a pure hash, and node `from`'s callbacks run only on its
// owner shard; counts and trace are the caller's (per-shard) sinks.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/core/network_model.hpp"
#include "sim/core/run_config.hpp"
#include "sim/fault/byzantine.hpp"
#include "sim/trace.hpp"

namespace cg {

class Wire {
 public:
  /// send() result for a message that never reaches a calendar (swallowed
  /// by a silent adversary, or lost on the wire).
  static constexpr Step kDropped = -1;

  void reset(const RunConfig& cfg) {
    n_ = cfg.n;
    last_send_.assign(static_cast<std::size_t>(cfg.n), kNeverSent);
    net_.reset(cfg);
    byz_.reset(cfg.n, cfg.root, cfg.seed, cfg.byzantine);
  }

  /// Upper bound on send-to-delivery delay (delivery-calendar ring sizing).
  Step max_delay() const { return net_.max_delay(); }

  /// Emit `msg` from `from` at step `now`, `held` being the sender's held
  /// digest.  On return `to` and `msg` are what goes on the wire (msg.src =
  /// from).  Counts go to `counts`; when `tracing`, the send-side events go
  /// to trace(TraceEvent).  Returns the delivery step, or kDropped.
  template <class TraceFn>
  Step send(NodeId from, NodeId& to, Message& msg, std::uint32_t held,
            Step now, MessageCounts& counts, bool tracing, TraceFn&& trace) {
    CG_CHECK(to >= 0 && to < n_);
    CG_CHECK_MSG(to != from, "node sent a message to itself");
    Step& last = last_send_[static_cast<std::size_t>(from)];
    CG_CHECK_MSG(last != now, "protocol emitted >1 message in one step");
    last = now;
    if (msg.payload == 0) msg.payload = held;
    const ByzAction act =
        byz_.any() ? byz_.transform(from, to, msg, now) : ByzAction::kHonest;
    switch (act) {
      case ByzAction::kSuppressed:
        counts.add_suppressed();
        return kDropped;  // swallowed at the sender: no send/lost trace
      case ByzAction::kEquivocated: counts.add_equivocated(); break;
      case ByzAction::kForged: counts.add_forged(); break;
      case ByzAction::kHonest: break;
    }
    counts.add(msg);
    if (tracing) {
      trace(TraceEvent{now, TraceEvent::Kind::kSend, from, to, msg.tag});
      if (act == ByzAction::kEquivocated)
        trace(TraceEvent{now, TraceEvent::Kind::kEquivocated, from, to,
                         msg.tag});
      else if (act == ByzAction::kForged)
        trace(TraceEvent{now, TraceEvent::Kind::kForged, from, to, msg.tag});
    }
    const Step at = net_.route(from, to, now);
    if (at == NetworkModel::kLost) {  // lost on the wire (counted as work)
      if (tracing)
        trace(TraceEvent{now, TraceEvent::Kind::kLost, from, to, msg.tag});
      return kDropped;
    }
    msg.src = from;
    return at;
  }

 private:
  static constexpr Step kNeverSent = -1;  // valid steps are >= 0

  NodeId n_ = 0;
  std::vector<Step> last_send_;  // R1: the step of each node's last emission
  NetworkModel net_;
  ByzantineModel byz_;
};

}  // namespace cg
