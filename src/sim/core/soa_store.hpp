// Structure-of-arrays node state for the sharded engine.
//
// SoaNodeStore<Node> is the flat memory plan behind million-node runs:
//   * NodeStateStore - the canonical lifecycle/timestamp arrays every
//     engine shares (semantics and RunMetrics finalization stay in ONE
//     place, so the sharded engine cannot drift from the others);
//   * packed bitmaps MIRRORING the Active and colored states (kept
//     coherent by the transition wrappers below), so per-step sweeps
//     scan 64 nodes per word instead of a byte per node;
//   * the dense protocol slab (vector<Node>, contiguous - GOS nodes are
//     ~16 bytes, so a million nodes fit in a few cache-resident MB) and
//     the per-node RNG streams.
//
// The existing Protocol object API (on_start/on_tick/on_receive against
// BasicCtx) keeps working: the engine's shard view forwards every ctx_*
// transition through this store, which updates the byte arrays and the
// bitmaps together.  Protocols never see the bitmaps - they are an engine
// -side acceleration structure, not model state.
//
// Thread-safety contract (sharded engine): all mutating calls for node i
// come from i's owner shard, and shard blocks are 64-node-aligned, so
// byte arrays stay race-free per the NodeStateStore contract and bitmap
// words are owner-disjoint.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/node_state.hpp"

namespace cg {

template <class Node>
class SoaNodeStore {
 public:
  using Params = typename Node::Params;

  void reset(NodeId n, std::uint64_t seed, const Params& params) {
    life_.reset(n);
    active_.reset(n);
    colored_.reset(n);
    const auto sz = static_cast<std::size_t>(n);
    if constexpr (kNodeReset) {
      if (nodes_.size() == sz) {
        for (NodeId i = 0; i < n; ++i)
          nodes_[static_cast<std::size_t>(i)].reset_for_run(params, i, n);
      } else {
        nodes_.clear();
        nodes_.reserve(sz);
        for (NodeId i = 0; i < n; ++i) nodes_.emplace_back(params, i, n);
      }
    } else {
      nodes_.clear();
      nodes_.reserve(sz);
      for (NodeId i = 0; i < n; ++i) nodes_.emplace_back(params, i, n);
    }
    rng_.clear();
    rng_.reserve(sz);
    for (NodeId i = 0; i < n; ++i)
      rng_.emplace_back(derive_seed(seed, static_cast<std::uint64_t>(i)));
  }

  NodeId n() const { return life_.n(); }
  Node& node(NodeId i) { return nodes_[static_cast<std::size_t>(i)]; }
  const Node& node(NodeId i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  Xoshiro256& rng(NodeId i) { return rng_[static_cast<std::size_t>(i)]; }

  // --- lifecycle reads (delegate to the canonical store) -----------------
  bool alive(NodeId i) const { return life_.alive(i); }
  bool done(NodeId i) const { return life_.done(i); }
  NodeRunState state(NodeId i) const { return life_.state(i); }
  bool colored(NodeId i) const { return life_.colored(i); }
  Step activated_at(NodeId i) const { return life_.activated_at(i); }
  const NodeStateStore& life() const { return life_; }

  /// Bitmap of Active nodes (engine sweep acceleration; read-only).
  const PackedBits& active_bits() const { return active_; }

  // --- transitions (byte arrays + bitmaps updated together) --------------
  void pre_fail(NodeId i) { life_.pre_fail(i); }

  bool activate(NodeId i, Step now) {
    if (!life_.activate(i, now)) return false;
    active_.set(i);
    return true;
  }

  NodeStateStore::Transition complete(NodeId i, Step now) {
    const auto t = life_.complete(i, now);
    if (t.was_active) active_.clear(i);
    return t;
  }

  NodeStateStore::Transition kill(NodeId i) {
    const auto t = life_.kill(i);
    if (t.was_active) active_.clear(i);
    return t;
  }

  bool revive(NodeId i, const Params& params) {
    if (!life_.revive(i)) return false;
    // Fresh protocol instance, uncolored and passive (see sim/engine.hpp).
    if constexpr (kNodeReset)
      nodes_[static_cast<std::size_t>(i)].reset_for_run(params, i, life_.n());
    else
      nodes_[static_cast<std::size_t>(i)] = Node(params, i, life_.n());
    colored_.clear(i);
    return true;
  }

  bool mark_colored(NodeId i, Step now, std::uint32_t payload = 0) {
    if (!life_.mark_colored(i, now, payload)) return false;
    colored_.set(i);
    return true;
  }

  bool mark_delivered(NodeId i, Step now) {
    return life_.mark_delivered(i, now);
  }

  std::uint32_t held_payload(NodeId i) const { return life_.held_payload(i); }
  void set_held_payload(NodeId i, std::uint32_t d) {
    life_.set_held_payload(i, d);
  }
  void mark_byzantine(NodeId i) { life_.mark_byzantine(i); }

  void finalize(RunMetrics& m, NodeId root, Step t_end,
                bool record_node_detail) const {
    life_.finalize(m, root, t_end, record_node_detail);
  }

  /// Bytes held by the per-node arrays (memory-plan accounting for
  /// EngineProfile::bytes_per_node).
  std::size_t footprint_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           rng_.capacity() * sizeof(Xoshiro256) +
           active_.footprint_bytes() + colored_.footprint_bytes() +
           static_cast<std::size_t>(life_.n()) *
               (2 * sizeof(std::uint8_t) + 4 * sizeof(Step));
  }

 private:
  /// Same trait as Engine/ShardedEngine: in-place capacity-preserving
  /// node reset, used for trial reruns and restart revival.
  static constexpr bool kNodeReset =
      requires(Node& nd, const Params& p) {
        nd.reset_for_run(p, NodeId{0}, NodeId{2});
      };

  NodeStateStore life_;
  PackedBits active_;   // mirrors state == kActive
  PackedBits colored_;  // mirrors colored_at != kNever
  std::vector<Node> nodes_;
  std::vector<Xoshiro256> rng_;
};

}  // namespace cg
