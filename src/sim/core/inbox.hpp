// Receive queues for RxPolicy::kOnePerStep, shared by both execution
// engines: one InboxSlab per sweep domain (the whole run on the stepped
// engine, a shard's block on the sharded one).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/network_model.hpp"

namespace cg {

/// Slab-backed inbox for a block of nodes: one entry arena plus an
/// intrusive FIFO per local node, and a bitmap of the nonempty FIFOs.  It
/// needs no per-node heap allocation - at 10^6 nodes the empty-inbox
/// overhead is two int32s and a bit per node - and freed entries recycle
/// through a free list, so steady-state pushes never allocate.  Arrivals
/// must be pushed in canonical rx_order_before order per (node, step)
/// (push_due does that); the slab only preserves FIFO.
///
/// Thread-safety contract (sharded engine): one InboxSlab per shard, only
/// ever touched by the owning shard's thread.
class InboxSlab {
 public:
  static constexpr std::int32_t kNil = -1;

  /// (Re)size for `nodes` local nodes; drops all queued messages.  Capacity
  /// is normally recycled across runs (the trial-farm steady state performs
  /// zero allocations), but a one-off huge run must not pin its arena for
  /// the rest of the farm: above the high-water mark it is released.
  void reset(std::size_t nodes) {
    head_.assign(nodes, kNil);
    tail_.assign(nodes, kNil);
    nonempty_.reset(static_cast<NodeId>(nodes));
    if (entries_.capacity() > kHighWater) {
      std::vector<Entry>().swap(entries_);
    } else {
      entries_.clear();
    }
    free_ = kNil;
  }

  bool empty(std::size_t local) const { return head_[local] == kNil; }

  void push(std::size_t local, const Message& m) {
    std::int32_t e;
    if (free_ != kNil) {
      e = free_;
      free_ = entries_[static_cast<std::size_t>(e)].next;
      entries_[static_cast<std::size_t>(e)] = Entry{m, kNil};
    } else {
      e = static_cast<std::int32_t>(entries_.size());
      entries_.push_back(Entry{m, kNil});
    }
    if (tail_[local] == kNil) {
      head_[local] = e;
      nonempty_.set(static_cast<NodeId>(local));
    } else {
      entries_[static_cast<std::size_t>(tail_[local])].next = e;
    }
    tail_[local] = e;
  }

  /// Queue one step's due deliveries (elements with `to` and `msg`) for
  /// the nodes [lo, lo + nodes): sorted by (destination, rx_order_before)
  /// first, so every engine defers the same message to the next step.
  template <class Delivery>
  void push_due(std::vector<Delivery>& due, NodeId lo) {
    std::sort(due.begin(), due.end(), [](const Delivery& a, const Delivery& b) {
      return a.to != b.to ? a.to < b.to : rx_order_before(a.msg, b.msg);
    });
    for (const auto& d : due) push(static_cast<std::size_t>(d.to - lo), d.msg);
  }

  const Message& front(std::size_t local) const {
    CG_CHECK(!empty(local));
    return entries_[static_cast<std::size_t>(head_[local])].msg;
  }

  void pop(std::size_t local) {
    CG_CHECK(!empty(local));
    const std::int32_t e = head_[local];
    head_[local] = entries_[static_cast<std::size_t>(e)].next;
    if (head_[local] == kNil) {
      tail_[local] = kNil;
      nonempty_.clear(static_cast<NodeId>(local));
    }
    entries_[static_cast<std::size_t>(e)].next = free_;
    free_ = e;
  }

  /// Pop one message from every nonempty inbox, in local-node order, and
  /// hand it to fn(local, msg) - the kOnePerStep receive phase.  `fn` may
  /// not push.
  template <class Fn>
  void pop_each(Fn&& fn) {
    nonempty_.for_each_set(0, nonempty_.size(), [&](NodeId local) {
      const auto l = static_cast<std::size_t>(local);
      const Message m = front(l);
      pop(l);
      fn(local, m);
    });
  }

  std::size_t footprint_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           (head_.capacity() + tail_.capacity()) * sizeof(std::int32_t) +
           nonempty_.footprint_bytes();
  }

  /// Arena-release threshold for reset(), in entries.
  static constexpr std::size_t kHighWater = 4096;

 private:
  struct Entry {
    Message msg;
    std::int32_t next = kNil;
  };

  std::vector<Entry> entries_;
  std::vector<std::int32_t> head_;  // per local node; kNil = empty
  std::vector<std::int32_t> tail_;
  PackedBits nonempty_;             // local nodes with head_ != kNil
  std::int32_t free_ = kNil;
};

}  // namespace cg
