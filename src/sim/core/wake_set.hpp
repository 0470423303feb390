// Sleep state behind both engines' tick sweeps (the node contract's
// optional next_tick hook, sim/engine.hpp).  One awake bit per node, set
// on activation and on every receive; a node whose next ticks are no-ops
// clears it and records its wake step, and each sweep domain (the run on
// the stepped engine, a shard on the sharded one) keeps the earliest wake
// step of its sleepers.  Protocols without the hook never sleep and get no
// wake array.  Thread-safety (sharded engine): as for PackedBits.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "sim/core/bitset.hpp"

namespace cg {

template <class Node>
inline constexpr bool kSleeps = requires(const Node& nd, Step s) {
  { nd.next_tick(s) } -> std::convertible_to<Step>;
};

/// The first step at which `nd`'s on_tick may act; `now` without the hook.
template <class Node>
Step next_tick_of(const Node& nd, Step now) {
  if constexpr (kSleeps<Node>)
    return nd.next_tick(now);
  else
    return now;
}

class WakeSet {
 public:
  void reset(NodeId n, bool sleeps) {
    awake_.reset(n);
    wake_at_.assign(sleeps ? static_cast<std::size_t>(n) : 0, kNever);
  }

  const PackedBits& awake() const { return awake_; }
  void wake(NodeId i) { awake_.set(i); }

  /// Node i sleeps until step `until`; folds it into its domain's earliest.
  void sleep(NodeId i, Step until, Step& earliest) {
    awake_.clear(i);
    wake_at_[static_cast<std::size_t>(i)] = until;
    earliest = std::min(earliest, until);
  }

  /// Wake the sleepers in [lo, hi) due by `now`; returns the earliest wake
  /// step still pending there (kNever if none).
  Step wake_due(NodeId lo, NodeId hi, Step now) {
    Step earliest = kNever;
    for (NodeId i = lo; i < hi; ++i) {
      Step& w = wake_at_[static_cast<std::size_t>(i)];
      if (w <= now) {
        awake_.set(i);
        w = kNever;
      }
      earliest = std::min(earliest, w);
    }
    return earliest;
  }

  std::size_t footprint_bytes() const {
    return awake_.footprint_bytes() + wake_at_.capacity() * sizeof(Step);
  }

 private:
  PackedBits awake_;
  std::vector<Step> wake_at_;  // kNever = not asleep
};

}  // namespace cg
