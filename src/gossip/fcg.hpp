// FCG: Failure-proof Corrected-Gossip (paper Section III-D, Algorithm 3).
//
// Tolerates up to f node crashes *while the algorithm runs* and guarantees
// all-or-nothing delivery (Claim 4).  Compared to CCG, each g-node:
//   * accumulates the f+1 nearest g-nodes it knows in each ring direction
//     (k-arrays), learning transitively from the arrays carried in
//     correction messages (forward messages carry the sender's known
//     g-nodes BEHIND it, backward messages those AHEAD of it);
//   * once it knows f g-nodes in one direction it enters the finalization
//     round for the opposite-travelling messages: it restarts that sweep
//     from offset 1 so nearby nodes learn about those g-nodes and can exit;
//   * stops sweeping in a direction only after passing its (f+1)-th known
//     g-node in that direction; exits when both directions stopped (then
//     delivers);
//   * a full lap without finding f+1 g-nodes triggers the SOS flood.
// c-nodes deliver once they have heard of f+1 distinct g-nodes (so at
// least one survivor will finish the dissemination), or SOS on timeout.
//
// With Params::reliable.enabled, correction (kFwd/kBwd) and SOS traffic
// runs over the ack/retransmit sublayer (gossip/reliable.hpp), restoring
// the all-or-nothing guarantee under message loss; nodes defer their exit
// until the sublayer drained.  Disabled = bit-identical to Algorithm 3.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/ring.hpp"
#include "common/types.hpp"
#include "gossip/reliable.hpp"
#include "gossip/timing.hpp"
#include "proto/message.hpp"

namespace cg {

/// The f+1 nearest known g-nodes in one ring direction, sorted by distance.
class KnownGNodes {
 public:
  KnownGNodes() = default;
  KnownGNodes(Ring ring, NodeId self, Dir dir, int cap)
      : ring_(ring), self_(self), dir_(dir), cap_(cap) {
    ids_.reserve(static_cast<std::size_t>(cap));
  }

  /// Insert a g-node id; keeps the list sorted by distance, deduplicated,
  /// truncated to the nearest `cap` entries (the paper's sorting-by-distance
  /// operator followed by [0..f]).
  void insert(NodeId id) {
    if (id == self_) return;
    const Step d = ring_.dist(self_, id, dir_);
    auto it = std::lower_bound(ids_.begin(), ids_.end(), d,
                               [this](NodeId a, Step dist) {
                                 return ring_.dist(self_, a, dir_) < dist;
                               });
    if (it != ids_.end() && *it == id) return;  // duplicate
    if (static_cast<int>(ids_.size()) == cap_) {
      if (it == ids_.end()) return;  // farther than everything we keep
      ids_.pop_back();
    }
    ids_.insert(it, id);
  }

  int size() const { return static_cast<int>(ids_.size()); }
  NodeId at(int i) const { return ids_[static_cast<std::size_t>(i)]; }
  std::span<const NodeId> ids() const { return ids_; }

  /// Distance to the i-th nearest known g-node (kNever if unknown).
  Step dist_at(int i) const {
    return i < size() ? ring_.dist(self_, at(i), dir_) : kNever;
  }

 private:
  Ring ring_{1};
  NodeId self_ = 0;
  Dir dir_ = Dir::kFwd;
  int cap_ = 0;
  std::vector<NodeId> ids_;
};

class FcgNode {
 public:
  struct Params {
    Step T = 0;           ///< gossip stop time
    int f = 1;            ///< online failures tolerated (0..kMaxKnownF)
    Step drain_extra = 0; ///< extra drain before correction (see OcgNode)
    Step sos_timeout = 0; ///< absolute step; 0 = auto from N/T/LogP
    bool sos_enabled = true;  ///< disable to study Claim 5 (tests only)
    /// Ack/retransmit hardening of correction + SOS (off by default).
    ReliableParams reliable;
    /// Testing hook: bitmap of nodes pre-colored as g-nodes at step 0.
    std::shared_ptr<const std::vector<std::uint8_t>> seed_colored;
  };

  static Step auto_timeout(const Params& p, NodeId n, const LogP& logp) {
    return p.sos_timeout > 0
               ? p.sos_timeout
               : corr_start(p.T, logp) + 4 * static_cast<Step>(n) +
                     8 * logp.delivery_delay() + 16;
  }

  FcgNode(const Params& p, NodeId self, NodeId n)
      : p_(p),
        self_(self),
        ring_(n),
        known_{KnownGNodes(ring_, self, Dir::kFwd, p.f + 1),
               KnownGNodes(ring_, self, Dir::kBwd, p.f + 1)},
        rel_(p.reliable, self, n) {
    CG_CHECK(p.f >= 0 && p.f <= kMaxKnownF);
  }

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
      if (ring_.size() == 1) {
        ctx.deliver();
        ctx.complete();
      }
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    switch (rel_.on_receive(ctx, m)) {
      case ReliableLink::Rx::kAck:
      case ReliableLink::Rx::kDuplicate:
        return;  // sublayer traffic; completion happens in on_tick only
      case ReliableLink::Rx::kProcess: break;
    }
    if (done_ || want_complete_) return;
    if (m.tag == Tag::kSos) {
      // Line 23 / lines 8-10: enter SOS mode ourselves.
      if (!colored_) { colored_ = true; ctx.mark_colored(); }
      start_sos();
      return;
    }
    if (m.tag == Tag::kGossip) {
      if (!colored_) {
        colored_ = true;
        g_node_ = true;
        ctx.mark_colored();
      }
      return;
    }
    if (!is_ring_corr(m.tag)) return;
    if (!colored_) {
      colored_ = true;  // c-node
      ctx.mark_colored();
    }
    if (g_node_) {
      // Merge src and the carried array into the appropriate k-array
      // (Algorithm 3 lines 21-22): a forward message teaches about g-nodes
      // BEHIND us, a backward message about g-nodes AHEAD.  Unlike the
      // (typographically mangled) !f_t gate in the paper's listing we never
      // freeze knowledge: growth only shrinks stop distances over already-
      // covered prefixes, so every correctness argument is preserved, while
      // freezing a k-array below f+1 entries would stall its stop rule.
      const Dir learn = m.tag == Tag::kFwd ? Dir::kBwd : Dir::kFwd;
      known_[idx(learn)].insert(m.src);
      for (const NodeId id : m.known_nodes()) known_[idx(learn)].insert(id);
    } else {
      // c-node: count distinct g-nodes heard of (line 13).
      merge_cnode_knowledge(m);
      if (static_cast<int>(cnode_known_.size()) >= p_.f + 1) {
        ctx.deliver();
        finish(ctx);
      }
    }
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (done_) return;
    if (rel_.on_tick(ctx)) {  // acks / retransmits own this step's slot
      try_complete(ctx);
      return;
    }
    if (want_complete_) {
      try_complete(ctx);
      return;
    }
    const Step now = ctx.now();

    if (sos_mode_) {
      tick_sos(ctx);
      return;
    }

    if (!g_node_) {
      // c-node: waiting for f+1 known g-nodes; SOS on timeout (line 14).
      if (p_.sos_enabled &&
          now >= auto_timeout(p_, ring_.size(), ctx.logp())) {
        start_sos();
        tick_sos(ctx);
      }
      return;
    }

    if (now < p_.T) {
      ctx.send(ctx.rng().other_node(self_, ring_.size()), plain_gossip_msg(now));
      return;
    }
    if (now < corr_start(p_.T, ctx.logp()) + p_.drain_extra)
      return;  // drain window

    // Finalization triggers (line 24): learning f g-nodes in one direction
    // restarts the opposite-travelling sweep from offset 1 so that those
    // g-nodes' existence is disseminated the other way.
    for (const Dir learn : {Dir::kFwd, Dir::kBwd}) {
      const Dir sweep = opposite(learn);
      if (!final_[idx(sweep)] && known_[idx(learn)].size() >= p_.f) {
        final_[idx(sweep)] = true;
        off_[idx(sweep)] = 1;
        s_[idx(sweep)] = true;
      }
    }

    // One direction slot per step, alternating (cf. Algorithm 3 line 19).
    const Dir dir = (slot_++ % 2 == 0) ? Dir::kFwd : Dir::kBwd;
    const int d = idx(dir);
    if (s_[d]) {
      // Stop once we passed our (f+1)-th known g-node in this direction
      // (line 25).
      if (off_[d] > known_[d].dist_at(p_.f)) {
        s_[d] = false;
      } else if (off_[d] <= ring_.size()) {
        const NodeId target = ring_.step(self_, dir, off_[d]);
        if (target != self_) {
          Message m;
          m.tag = dir_tag(dir);
          // Carried array: our known g-nodes in the direction the receiver
          // would call "towards the sender", i.e. opposite to travel.
          m.set_known(known_[idx(opposite(dir))].ids());
          rel_.send(ctx, target, m);
        }
        ++off_[d];
      }
    }

    // Full lap without f+1 g-nodes: SOS (line 28).
    if (off_[0] > ring_.size() || off_[1] > ring_.size()) {
      if (p_.sos_enabled) {
        start_sos();
        return;
      }
      // Claim-5 analysis mode: behave as if SOS did not exist; the node
      // simply stops sweeping that direction.
      if (off_[0] > ring_.size()) s_[0] = false;
      if (off_[1] > ring_.size()) s_[1] = false;
    }

    if (!s_[0] && !s_[1]) {
      ctx.deliver();
      finish(ctx);
    }
  }

  bool colored() const { return colored_; }
  bool is_g_node() const { return g_node_; }
  bool in_sos() const { return sos_mode_; }
  const KnownGNodes& known(Dir d) const { return known_[idx(d)]; }
  const ReliableLink& reliable() const { return rel_; }

 private:
  static int idx(Dir d) { return static_cast<int>(d); }

  /// Protocol wants to exit; with the sublayer on, hold the node until it
  /// drained (acks owed, transactions unacked).  Completion then happens
  /// exclusively from on_tick: completing inside on_receive would drop the
  /// rest of a same-step delivery batch un-acked, and under kDrainAll the
  /// engines drain a batch in engine-specific order - the set of acked
  /// messages (hence every retransmit decision) must not depend on it.
  template <class Ctx>
  void finish(Ctx& ctx) {
    if (!rel_.enabled()) {
      done_ = true;
      ctx.complete();
      return;
    }
    want_complete_ = true;
  }

  template <class Ctx>
  void try_complete(Ctx& ctx) {
    if (want_complete_ && rel_.idle()) {
      done_ = true;
      ctx.complete();
    }
  }

  void merge_cnode_knowledge(const Message& m) {
    auto add = [this](NodeId id) {
      if (id == self_) return;
      if (std::find(cnode_known_.begin(), cnode_known_.end(), id) ==
          cnode_known_.end())
        cnode_known_.push_back(id);
    };
    add(m.src);
    for (const NodeId id : m.known_nodes()) add(id);
  }

  void start_sos() {
    if (sos_mode_ || done_) return;
    sos_mode_ = true;
    sos_next_ = 0;
  }

  template <class Ctx>
  void tick_sos(Ctx& ctx) {
    // Lines 9-10: send an SOS message to every other node (one per step,
    // each send costs O), then deliver and exit.
    while (sos_next_ < ring_.size()) {
      const NodeId target = static_cast<NodeId>(sos_next_++);
      if (target == self_) continue;
      Message m;
      m.tag = Tag::kSos;
      rel_.send(ctx, target, m);
      return;
    }
    ctx.deliver();
    finish(ctx);
  }

  Params p_;
  NodeId self_;
  Ring ring_;
  bool colored_ = false;
  bool g_node_ = false;
  bool done_ = false;
  bool sos_mode_ = false;
  Step sos_next_ = 0;

  // g-node correction state.
  KnownGNodes known_[2];        // indexed by Dir
  Step off_[2] = {1, 1};
  bool s_[2] = {true, true};
  bool final_[2] = {false, false};
  Step slot_ = 0;

  // c-node state: distinct g-nodes heard of.
  std::vector<NodeId> cnode_known_;

  ReliableLink rel_;
  bool want_complete_ = false;
};

}  // namespace cg
