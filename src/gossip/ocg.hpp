// OCG: Opportunistic Corrected-Gossip (paper Section III-B, Algorithm 1).
//
// Gossip for T steps, drain for L+O, then every g-node sweeps the virtual
// ring with correction messages, alternating +off / -off, for a fixed
// number of correction emissions.  Nodes colored by a correction message
// (c-nodes) never send; already-colored nodes ignore further messages.
// Weakly or strongly consistent with probability >= 1-eps by choice of
// T and the sweep length (Claim 2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/ring.hpp"
#include "common/types.hpp"
#include "gossip/timing.hpp"
#include "proto/message.hpp"

namespace cg {

class OcgNode {
 public:
  struct Params {
    Step T = 0;          ///< gossip stop time
    Step corr_sends = 0; ///< correction emissions per g-node (= K_bar + margin)
    /// Extra drain steps before the correction starts - pad this when the
    /// network's worst-case latency exceeds the LogP L (jitter, slow
    /// cross-rack links), so straggling gossip arrivals still make their
    /// receivers g-nodes in time.
    Step drain_extra = 0;
    /// Testing hook: bitmap of nodes pre-colored as g-nodes at step 0
    /// (lets tests drive the correction phase with a constructed g-set;
    /// combine with T=0 to suppress gossip).
    std::shared_ptr<const std::vector<std::uint8_t>> seed_colored;
  };

  /// Absolute step after the last correction emission, i.e. the paper's C.
  static Step corr_end(const Params& p, const LogP& logp) {
    return corr_start(p.T, logp) + p.drain_extra + p.corr_sends;
  }

  OcgNode(const Params& p, NodeId self, NodeId n)
      : p_(p), self_(self), ring_(n) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    const bool seeded =
        p_.seed_colored &&
        (*p_.seed_colored)[static_cast<std::size_t>(self_)] != 0;
    if (ctx.is_root() || seeded) {
      colored_ = true;
      g_node_ = true;
      ctx.activate();
      ctx.mark_colored();
      ctx.deliver();
      if (ring_.size() == 1) ctx.complete();
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    if (colored_) return;  // no duplicates (Claim 1)
    colored_ = true;
    ctx.mark_colored();
    ctx.deliver();
    if (m.tag == Tag::kGossip) {
      g_node_ = true;  // colored during the gossip phase
    } else {
      // c-node: receives the payload in the correction phase and exits;
      // it never sends (Algorithm 1: its time counter is already >= C).
      ctx.complete();
    }
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    const Step now = ctx.now();
    const Step start = corr_start(p_.T, ctx.logp()) + p_.drain_extra;
    if (now < p_.T) {
      ctx.send(ctx.rng().other_node(self_, ring_.size()), plain_gossip_msg(now));
      return;
    }
    if (now < start) return;  // drain window
    if (now >= corr_end(p_, ctx.logp())) {
      ctx.complete();
      return;
    }
    // Correction sweep: emissions alternate (i+1), (i-1), (i+2), (i-2), ...
    const Step k = now - start;  // 0-based emission index
    const auto off = static_cast<std::int64_t>(k / 2 + 1);
    const Dir dir = (k % 2 == 0) ? Dir::kFwd : Dir::kBwd;
    if (off < ring_.size()) {
      const NodeId target = ring_.step(self_, dir, off);
      if (target != self_) {
        Message m;
        m.tag = Tag::kOcgCorr;
        m.time = corr_end(p_, ctx.logp());  // the paper's (C, data)
        ctx.send(target, m);
      }
    }
  }

  bool colored() const { return colored_; }
  bool is_g_node() const { return g_node_; }

 private:
  Params p_;
  NodeId self_;
  Ring ring_;
  bool colored_ = false;
  bool g_node_ = false;
};

}  // namespace cg
