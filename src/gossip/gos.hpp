// GOS: plain randomized push-gossip broadcast (paper Section IV-B1,
// Drezner & Barak [12]) - the probabilistic baseline without correction.
//
// Every colored node sends the payload to a uniformly random other node
// once per step while the emission step is < T; the run drains for another
// L+O and ends.  Weakly consistent only: some nodes may never be reached.
#pragma once

#include "common/types.hpp"
#include "gossip/timing.hpp"
#include "proto/message.hpp"

namespace cg {

class GosNode {
 public:
  struct Params {
    Step T = 0;  ///< gossip stop time (no emissions at steps >= T)
  };

  GosNode(const Params& p, NodeId self, NodeId n)
      : T_(p.T), self_(self), n_(n) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (ctx.is_root()) {
      colored_ = true;
      ctx.mark_colored();
      ctx.deliver();
      if (n_ == 1) ctx.complete();
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    if (m.tag != Tag::kGossip || colored_) return;  // duplicates ignored
    colored_ = true;
    ctx.mark_colored();
    ctx.deliver();
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (!colored_) return;
    const Step now = ctx.now();
    if (now < T_) {
      ctx.send(ctx.rng().other_node(self_, n_), plain_gossip_msg(now));
      return;
    }
    // Between T and T+L+O in-flight messages drain; then the node is done.
    if (now >= gossip_drain_end(T_, ctx.logp())) ctx.complete();
  }

  bool colored() const { return colored_; }

 private:
  Step T_;
  NodeId self_;
  NodeId n_;
  bool colored_ = false;
};

}  // namespace cg
