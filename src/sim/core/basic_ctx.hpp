// The execution context handed to protocol callbacks - ONE surface for all
// engines.
//
// BasicCtx implements the full Ctx API protocols program against
// (now/self/n/root/logp/rng/send/activate/mark_colored/deliver/complete/
// colored) in terms of a small set of ctx_* hooks the host supplies:
//
//   Step ctx_now() const;
//   const RunConfig& ctx_cfg() const;
//   Xoshiro256& ctx_rng(NodeId self);
//   void ctx_send(NodeId self, NodeId to, const Message& m);
//   void ctx_activate(NodeId self);
//   void ctx_mark_colored(NodeId self);
//   void ctx_deliver(NodeId self);
//   void ctx_complete(NodeId self);
//   bool ctx_colored(NodeId self) const;
//   void ctx_note_dropped(NodeId self);
//   void ctx_adopt_payload(NodeId self, std::uint32_t digest);
//
// The host is the engine itself (stepped) or a per-shard view of it
// (sharded), so engine-specific bookkeeping stays in the engine while
// the protocol-facing API cannot drift between engines.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/core/run_config.hpp"
#include "sim/logp.hpp"

namespace cg {

template <class HostT>
class BasicCtx {
 public:
  BasicCtx(HostT& host, NodeId self) : host_(&host), self_(self) {}

  Step now() const { return host_->ctx_now(); }
  NodeId self() const { return self_; }
  NodeId n() const { return host_->ctx_cfg().n; }
  NodeId root() const { return host_->ctx_cfg().root; }
  bool is_root() const { return self_ == host_->ctx_cfg().root; }
  const LogP& logp() const { return host_->ctx_cfg().logp; }
  Xoshiro256& rng() { return host_->ctx_rng(self_); }
  /// The run's root seed - for protocols that derive deterministic
  /// per-node randomness (e.g. SBRB's splitmix64-keyed samples) without
  /// consuming the trial RNG stream.
  std::uint64_t seed() const { return host_->ctx_cfg().seed; }

  /// Emit one message; delivered at now() + L/O + 1 (+ network effects).
  void send(NodeId to, const Message& m) { host_->ctx_send(self_, to, m); }

  /// Make an Idle node Active (used by protocols whose on_start seeds
  /// state on non-root nodes, e.g. pull-style gossip or testing hooks).
  void activate() { host_->ctx_activate(self_); }

  /// Record that this node now holds the broadcast payload.  The digest it
  /// holds defaults to the one on the message being processed (the engine
  /// tracks it); use adopt_payload() to override.
  void mark_colored() { host_->ctx_mark_colored(self_); }
  /// Override the payload digest this node holds (and will deliver/forward)
  /// - SBRB's Contagion adopts the sample-winning payload, which can differ
  /// from the first-received candidate under equivocation.
  void adopt_payload(std::uint32_t digest) {
    host_->ctx_adopt_payload(self_, digest);
  }
  /// Record formal delivery to the client (FCG semantics).
  void deliver() { host_->ctx_deliver(self_); }
  /// Exit the algorithm; no further callbacks for this node.
  void complete() { host_->ctx_complete(self_); }

  bool colored() const { return host_->ctx_colored(self_); }

  /// Record a message this node intentionally discarded under backpressure
  /// (e.g. a pull request beyond the answer-backlog cap).  Feeds the
  /// msgs_dropped metric; does not count as a send.
  void note_dropped() { host_->ctx_note_dropped(self_); }

 private:
  HostT* host_;
  NodeId self_;
};

}  // namespace cg
