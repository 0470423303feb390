// Per-node model state shared by both execution engines.
//
// NodeStore<Node> is the one memory plan behind every run, from unit-test
// sizes to million-node ones:
//   * the dense protocol slab (vector<Node>, contiguous - GOS nodes are
//     24 bytes, so a million nodes fit in a few tens of MB) and the
//     per-node RNG streams;
//   * the lifecycle arrays (alive, Idle/Active/Done state, colored/
//     delivered/completed/activated steps, held/delivered payload digests,
//     Byzantine flags) and the transition rules between them - what
//     "activated", "colored", "delivered", "completed" and "crashed" MEAN
//     lives here, so the semantics cannot drift between engines;
//   * a packed bitmap MIRRORING the Active state (kept coherent by the
//     transitions), so a tick sweep scans 64 nodes per word instead of a
//     byte per node;
//   * the single RunMetrics finalization.
//
// Engines own scheduling and active/in-flight counting; protocols never
// see this class (they program against BasicCtx).
//
// Thread-safety contract (sharded engine): every mutating call for node i
// comes from the shard that owns i, and shard blocks are 64-node-aligned.
// The lifecycle arrays are at least one byte per node (no vector<bool> bit
// packing) and bitmap words are owner-disjoint, so owner-disjoint access is
// free of data races.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/run_config.hpp"
#include "sim/fault/byzantine.hpp"
#include "sim/metrics.hpp"

namespace cg {

template <class Node>
class NodeStore {
 public:
  using Params = typename Node::Params;

  /// Outcome of a complete()/kill() call, so engines can maintain their own
  /// active-node accounting (a plain counter, per-shard deltas, ...).
  struct Transition {
    bool changed = false;     ///< the call performed a state change
    bool was_active = false;  ///< the node was Active before the change
  };

  /// Fresh run: every node constructed (or reset in place), seeded, alive
  /// and Idle; then the config's pre-failed set is dead and its Byzantine
  /// set flagged.  The root must not be pre-failed.
  void reset(const RunConfig& cfg, const Params& params) {
    const NodeId n = cfg.n;
    const auto sz = static_cast<std::size_t>(n);
    n_ = n;
    if (kNodeReset && nodes_.size() == sz) {
      for (NodeId i = 0; i < n; ++i) reset_node(i, params);
    } else {
      nodes_.clear();
      nodes_.reserve(sz);
      for (NodeId i = 0; i < n; ++i) nodes_.emplace_back(params, i, n);
    }
    rng_.clear();
    rng_.reserve(sz);
    for (NodeId i = 0; i < n; ++i)
      rng_.emplace_back(derive_seed(cfg.seed, static_cast<std::uint64_t>(i)));
    active_.reset(n);
    alive_.assign(sz, 1);
    state_.assign(sz, NodeRunState::kIdle);
    colored_at_.assign(sz, kNever);
    delivered_at_.assign(sz, kNever);
    completed_at_.assign(sz, kNever);
    activated_at_.assign(sz, kNever);
    held_payload_.assign(sz, 0);
    delivered_payload_.assign(sz, 0);
    byzantine_.assign(sz, 0);
    for (const NodeId i : cfg.failures.pre_failed) {
      CG_CHECK(i >= 0 && i < n_);
      alive_[idx(i)] = 0;
      state_[idx(i)] = NodeRunState::kDone;
    }
    // Survives revive(): a compromised host stays compromised.
    for (const auto& b : cfg.byzantine.nodes) byzantine_[idx(b.node)] = 1;
    CG_CHECK_MSG(alive(cfg.root), "root must be active at start");
  }

  Node& node(NodeId i) { return nodes_[idx(i)]; }
  const Node& node(NodeId i) const { return nodes_[idx(i)]; }
  Xoshiro256& rng(NodeId i) { return rng_[idx(i)]; }

  bool alive(NodeId i) const { return alive_[idx(i)] != 0; }
  bool done(NodeId i) const { return state_[idx(i)] == NodeRunState::kDone; }
  bool colored(NodeId i) const { return colored_at_[idx(i)] != kNever; }
  Step activated_at(NodeId i) const { return activated_at_[idx(i)]; }
  /// Payload digest node i currently holds (0 until colored).
  std::uint32_t held_payload(NodeId i) const { return held_payload_[idx(i)]; }

  /// Bitmap of Active nodes (engine sweep acceleration; read-only).
  const PackedBits& active_bits() const { return active_; }

  /// Override the digest node i holds (SBRB Contagion adopts the winning
  /// payload just before delivering; also sets it for an uncolored node).
  void set_held_payload(NodeId i, std::uint32_t d) {
    held_payload_[idx(i)] = d;
  }

  /// Idle -> Active; returns true if the transition happened.
  bool activate(NodeId i, Step now) {
    if (state_[idx(i)] != NodeRunState::kIdle) return false;
    state_[idx(i)] = NodeRunState::kActive;
    activated_at_[idx(i)] = now;
    active_.set(i);
    return true;
  }

  /// Protocol exit: -> Done, recording the completion step.
  Transition complete(NodeId i, Step now) {
    const NodeRunState st = state_[idx(i)];
    if (st == NodeRunState::kDone) return {};
    state_[idx(i)] = NodeRunState::kDone;
    completed_at_[idx(i)] = now;
    if (st == NodeRunState::kActive) active_.clear(i);
    return {true, st == NodeRunState::kActive};
  }

  /// Crash: the node performs no further action.  completed_at stays kNever
  /// (dead nodes are excluded from every metric).
  Transition kill(NodeId i) {
    if (alive_[idx(i)] == 0) return {};
    const NodeRunState st = state_[idx(i)];
    alive_[idx(i)] = 0;
    state_[idx(i)] = NodeRunState::kDone;
    if (st == NodeRunState::kActive) active_.clear(i);
    return {true, st == NodeRunState::kActive};
  }

  /// Crash-restart rejoin: a DEAD node comes back alive, Idle, with every
  /// timestamp cleared and a FRESH protocol instance - uncolored and
  /// passive until its first receive (on_start is not re-run; the
  /// broadcast started without it).  Returns true if the node was dead and
  /// is now revived.
  bool revive(NodeId i, const Params& params) {
    if (alive_[idx(i)] != 0) return false;
    alive_[idx(i)] = 1;
    state_[idx(i)] = NodeRunState::kIdle;
    colored_at_[idx(i)] = kNever;
    delivered_at_[idx(i)] = kNever;
    completed_at_[idx(i)] = kNever;
    activated_at_[idx(i)] = kNever;
    held_payload_[idx(i)] = 0;
    delivered_payload_[idx(i)] = 0;
    reset_node(i, params);
    return true;
  }

  /// Record payload receipt; returns true the first time only.  `payload`
  /// is the digest the coloring message carried (0 = self-coloring, e.g.
  /// the root in on_start, which holds the true payload by definition).
  /// First-wins: a later re-color attempt never replaces the held digest.
  bool mark_colored(NodeId i, Step now, std::uint32_t payload = 0) {
    auto& c = colored_at_[idx(i)];
    if (c != kNever) return false;
    c = now;
    if (held_payload_[idx(i)] == 0)
      held_payload_[idx(i)] = payload != 0 ? payload : kTruePayload;
    return true;
  }

  /// Record formal delivery (FCG semantics); returns true the first time.
  /// Snapshots the held digest as what this node delivered.
  bool mark_delivered(NodeId i, Step now) {
    auto& d = delivered_at_[idx(i)];
    if (d != kNever) return false;
    d = now;
    const std::uint32_t h = held_payload_[idx(i)];
    delivered_payload_[idx(i)] = h != 0 ? h : kTruePayload;
    return true;
  }

  /// The single RunMetrics finalization both engines share.  Message
  /// counters (msgs_*) must already be merged into `m`; this fills the
  /// population, timing and flag fields from the per-node arrays.
  void finalize(RunMetrics& m, NodeId root, Step t_end,
                bool record_node_detail) const {
    m.n_total = n_;
    m.t_end = t_end;
    Step last_colored = 0, last_delivered = 0, last_complete = 0;
    bool any_colored = false;
    bool any_uncolored = false, any_undelivered = false, any_incomplete = false;
    for (NodeId i = 0; i < n_; ++i) {
      if (alive_[idx(i)] == 0) continue;
      // Reach/delivery guarantees quantify over CORRECT nodes: whether an
      // adversary's own replica "delivered" is meaningless (an equivocator
      // happily starves its own quorums), so Byzantine nodes count toward
      // n_byzantine below, not n_active.
      if (byzantine_[idx(i)] != 0) continue;
      ++m.n_active;
      if (colored_at_[idx(i)] != kNever) {
        ++m.n_colored;
        any_colored = true;
        last_colored = std::max(last_colored, colored_at_[idx(i)]);
        if (completed_at_[idx(i)] != kNever)
          last_complete = std::max(last_complete, completed_at_[idx(i)]);
        else
          any_incomplete = true;
      } else {
        any_uncolored = true;
      }
      if (delivered_at_[idx(i)] != kNever) {
        ++m.n_delivered;
        last_delivered = std::max(last_delivered, delivered_at_[idx(i)]);
      } else {
        any_undelivered = true;
      }
    }
    m.all_active_colored = !any_uncolored;
    m.all_active_delivered = !any_undelivered;
    m.t_last_colored = any_uncolored ? kNever : last_colored;
    // kNever (not 0) when nobody was colored: 0 is a legitimate coloring
    // step (the root's), so it cannot double as "never happened".
    m.t_last_colored_partial = any_colored ? last_colored : kNever;
    m.t_last_delivered = any_undelivered ? kNever : last_delivered;
    // Completion is over COLORED nodes: a weakly consistent protocol
    // (GOS/OCG) legitimately finishes while some nodes were never reached.
    m.t_complete = any_incomplete ? kNever : last_complete;
    m.sos_triggered = m.msgs_sos > 0;
    m.t_root_complete = completed_at_[idx(root)];
    // Byzantine accounting: payload agreement among CORRECT nodes (dead or
    // alive - a node that delivered a conflicting payload and then crashed
    // still witnessed the inconsistency).  Distinct-digest count saturates
    // at kMaxDistinct; the predicates only need "1" vs "> 1".
    constexpr int kMaxDistinct = 16;
    std::uint32_t seen[kMaxDistinct];
    int n_seen = 0;
    for (NodeId i = 0; i < n_; ++i) {
      if (byzantine_[idx(i)] != 0) {
        ++m.n_byzantine;
        continue;
      }
      const std::uint32_t d = delivered_payload_[idx(i)];
      if (d == 0) continue;
      if (d == kTruePayload)
        ++m.n_delivered_true;
      else
        ++m.n_delivered_forged;
      bool known = false;
      for (int k = 0; k < n_seen; ++k) known = known || seen[k] == d;
      if (!known && n_seen < kMaxDistinct) seen[n_seen++] = d;
    }
    m.distinct_delivered_payloads = n_seen;
    m.consistent_delivery = n_seen <= 1;
    if (record_node_detail) {
      m.colored_at = colored_at_;
      m.delivered_at = delivered_at_;
      m.completed_at = completed_at_;
    }
  }

  /// Heap bytes of every per-node array (memory-plan accounting for
  /// EngineProfile::bytes_per_node).
  std::size_t footprint_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           rng_.capacity() * sizeof(Xoshiro256) + active_.footprint_bytes() +
           (alive_.capacity() + byzantine_.capacity()) * sizeof(std::uint8_t) +
           state_.capacity() * sizeof(NodeRunState) +
           (held_payload_.capacity() + delivered_payload_.capacity()) *
               sizeof(std::uint32_t) +
           (colored_at_.capacity() + delivered_at_.capacity() +
            completed_at_.capacity() + activated_at_.capacity()) *
               sizeof(Step);
  }

 private:
  /// Lifecycle of a node during a run.  Nodes begin Idle (except the root),
  /// become Active on their first receive (or explicit activate()), and
  /// Done when they complete or crash.
  enum class NodeRunState : std::uint8_t { kIdle, kActive, kDone };

  /// Does the Node support in-place reset (capacity-preserving return to
  /// the freshly-constructed state)?  When it does, trial reruns and
  /// restarts reuse the node objects instead of re-emplacing them - the
  /// zero-alloc steady-state path for protocols with internal buffers
  /// (e.g. SBRB's staged-send slabs).
  static constexpr bool kNodeReset =
      requires(Node& nd, const Params& p) {
        nd.reset_for_run(p, NodeId{0}, NodeId{2});
      };

  void reset_node(NodeId i, const Params& params) {
    if constexpr (kNodeReset)
      nodes_[idx(i)].reset_for_run(params, i, n_);
    else
      nodes_[idx(i)] = Node(params, i, n_);
  }

  static std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

  NodeId n_ = 0;
  std::vector<Node> nodes_;
  std::vector<Xoshiro256> rng_;
  PackedBits active_;  // mirrors state == kActive
  // std::uint8_t, not vector<bool>: the sharded engine writes these from
  // different threads for different nodes; byte-sized elements keep that
  // race-free under the C++ memory model.
  std::vector<std::uint8_t> alive_;
  std::vector<NodeRunState> state_;
  std::vector<Step> colored_at_;
  std::vector<Step> delivered_at_;
  std::vector<Step> completed_at_;
  std::vector<Step> activated_at_;
  // Byzantine tier: digest each node holds / delivered (0 = none yet) and
  // the adversary flags.
  std::vector<std::uint32_t> held_payload_;
  std::vector<std::uint32_t> delivered_payload_;
  std::vector<std::uint8_t> byzantine_;
};

}  // namespace cg
