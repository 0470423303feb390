// Stepped LogP broadcast simulator.
//
// The engine advances global time in steps of the LogP overhead O and
// drives protocol state machines.  Per step it:
//   1. crashes nodes whose online-failure time has come;
//   2. delivers messages scheduled for this step (calling on_receive);
//   3. ticks every active, non-completed node (calling on_tick).
//
// A message emitted during on_tick at step s is delivered at step
// s + L/O + 1.  Protocols may emit AT MOST ONE message per node per step
// (enforced by the shared Wire), which models the per-message overhead O
// of the LogP model.
//
// The model itself lives in src/sim/core/: NodeStore (protocol slab, RNG
// streams, lifecycle, Active bitmap, RunMetrics finalization), Wire (the
// sender side of a send: R1, payload stamp, Byzantine transform, counts,
// send-side trace, NetworkModel route), InboxSlab (the kOnePerStep queues),
// WakeSet (sleep state) and BasicCtx (the protocol-facing API).  This
// engine and the window-sharded ShardedEngine (sim/sharded_engine.hpp) are
// two schedulers over that one model and produce identical RunMetrics
// (tests/test_engine_parity.cpp); this one is the byte-parity oracle.  It
// keeps only the step loop: crashes and revivals, the due calendar slot,
// the tick sweep and the quiescence jump.
//
// Protocol (Node) requirements - a Node type must provide:
//   struct Params {...};
//   Node(const Params&, NodeId self, NodeId n);
//   template <class Ctx> void on_start(Ctx&);                // step 0, every alive node
//   template <class Ctx> void on_receive(Ctx&, const Message&);
//   template <class Ctx> void on_tick(Ctx&);                 // each awake step while active
// and may provide the sleep hook (sim/core/wake_set.hpp):
//   Step next_tick(Step now) const;  // no message => on_tick is a no-op
//                                    // at every step before the result
//
// Nodes begin Idle (except the root, which is Active).  A node becomes
// Active when it first receives a message, and Done when it calls
// Ctx::complete().  Only Active, awake nodes are ticked: a node sleeps
// after a tick when next_tick says its next ticks are no-ops, and wakes on
// a receive or at its wake step.  The run stops when no node is Active and
// no message is in flight (or max_steps as a safety); while every Active
// node sleeps and nothing is in flight, the loop jumps straight to the
// next wake, crash or revival step.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/telemetry.hpp"
#include "proto/message.hpp"
#include "sim/core/basic_ctx.hpp"
#include "sim/core/inbox.hpp"
#include "sim/core/network_model.hpp"
#include "sim/core/node_store.hpp"
#include "sim/core/profile.hpp"
#include "sim/core/run_config.hpp"
#include "sim/core/wake_set.hpp"
#include "sim/core/wire.hpp"
#include "sim/failure.hpp"
#include "sim/logp.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace cg {

template <class Node>
class Engine {
 public:
  using Params = typename Node::Params;
  using Ctx = BasicCtx<Engine>;

  Engine(RunConfig cfg, Params params)
      : cfg_(std::move(cfg)), params_(std::move(params)) {
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
  }

  RunMetrics run() { return run_impl(); }

  /// Run with a fresh config/params, REUSING this engine's allocated state
  /// (node slab, RNG streams, calendar slots, inboxes, scratch).  This is
  /// the trial-farm entry point (harness TrialWorkspace): steady-state
  /// reruns of fault-free configs perform zero heap allocations when the
  /// Node constructor itself is allocation-free (tests/test_trial_farm.cpp
  /// pins this).  Produces exactly the metrics a fresh Engine would.
  RunMetrics run(const RunConfig& cfg, const Params& params) {
    cfg_ = cfg;  // copy-assign: vector members reuse capacity
    params_ = params;
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
    return run_impl();
  }

  /// Access a node's protocol state after (or during) the run - tests only.
  const Node& node(NodeId i) const { return store_.node(i); }

  // --- BasicCtx hooks (protocol-facing; not part of the public API) ------
  Step ctx_now() const { return step_; }
  const RunConfig& ctx_cfg() const { return cfg_; }
  Xoshiro256& ctx_rng(NodeId i) { return store_.rng(i); }
  void ctx_send(NodeId from, NodeId to, const Message& m) {
    do_send(from, to, m);
  }
  void ctx_activate(NodeId i) {
    if (!store_.activate(i, step_)) return;
    ++active_count_;
    wake_.wake(i);
  }
  void ctx_mark_colored(NodeId i) {
    if (store_.mark_colored(i, step_, rx_payload_)) {
      trace({step_, TraceEvent::Kind::kColored, i, kNoNode, Tag::kGossip});
      if (cfg_.telemetry != nullptr) cfg_.telemetry->record_colored(0, step_);
    }
  }
  void ctx_adopt_payload(NodeId i, std::uint32_t d) {
    store_.set_held_payload(i, d);
  }
  void ctx_deliver(NodeId i) {
    if (store_.mark_delivered(i, step_))
      trace({step_, TraceEvent::Kind::kDelivered, i, kNoNode, Tag::kGossip});
  }
  void ctx_complete(NodeId i) {
    const auto t = store_.complete(i, step_);
    if (!t.changed) return;
    if (t.was_active) --active_count_;
    trace({step_, TraceEvent::Kind::kComplete, i, kNoNode, Tag::kGossip});
  }
  bool ctx_colored(NodeId i) const { return store_.colored(i); }
  void ctx_note_dropped(NodeId) { counts_.add_dropped(); }

 private:
  struct Delivery {
    NodeId to;
    Message msg;
  };

  RunMetrics run_impl();
  void do_send(NodeId from, NodeId to, const Message& m);
  void apply_failure(NodeId i);
  void apply_restart(NodeId i);
  void dispatch(NodeId to, const Message& m);
  void trace(TraceEvent ev) {
    if (cfg_.trace != nullptr) cfg_.trace->on_event(ev);
  }
  RunMetrics finalize();

  RunConfig cfg_;
  Params params_;

  // Run state (valid during run()).
  Step step_ = 0;
  NodeStore<Node> store_;
  Wire wire_;
  std::uint32_t rx_payload_ = 0;  ///< digest of the message being dispatched
  MessageCounts counts_;
  std::vector<std::vector<Delivery>> calendar_;  // ring buffer, D+1 slots
  InboxSlab inbox_;                              // kOnePerStep only
  std::vector<Delivery> due_;                    // per-step scratch
  std::vector<OnlineFailure> online_scratch_;    // sorted crash schedule
  std::vector<Restart> revive_scratch_;          // sorted revival schedule
  WakeSet wake_;                                 // tick-sweep sleep state
  Step next_wake_ = kNever;                      // earliest sleeper wake step
  std::int64_t in_flight_ = 0;
  NodeId active_count_ = 0;
  RunMetrics metrics_{};
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <class Node>
void Engine<Node>::do_send(NodeId from, NodeId to, const Message& m) {
  Message out = m;
  const Step at =
      wire_.send(from, to, out, store_.held_payload(from), step_, counts_,
                 cfg_.trace != nullptr, [this](TraceEvent ev) { trace(ev); });
  if (at == Wire::kDropped) return;
  auto& slot = calendar_[static_cast<std::size_t>(
      at % static_cast<Step>(calendar_.size()))];
  slot.push_back({to, out});
  ++in_flight_;
  if (cfg_.profile != nullptr) {
    ++cfg_.profile->events_scheduled;
    cfg_.profile->queue_max_bucket =
        std::max(cfg_.profile->queue_max_bucket,
                 static_cast<std::int64_t>(slot.size()));
  }
}

template <class Node>
void Engine<Node>::apply_failure(NodeId i) {
  const auto t = store_.kill(i);
  if (!t.changed) return;
  if (t.was_active) --active_count_;
  trace({step_, TraceEvent::Kind::kFail, i, kNoNode, Tag::kGossip});
}

template <class Node>
void Engine<Node>::apply_restart(NodeId i) {
  if (!store_.revive(i, params_)) return;
  trace({step_, TraceEvent::Kind::kRestart, i, kNoNode, Tag::kGossip});
}

template <class Node>
void Engine<Node>::dispatch(NodeId to, const Message& m) {
  --in_flight_;
  if (!store_.alive(to) || store_.done(to)) return;  // dropped
  if (store_.activate(to, step_)) ++active_count_;
  wake_.wake(to);
  if (cfg_.trace != nullptr)
    trace({step_, TraceEvent::Kind::kDeliver, to, m.src, m.tag});
  if (cfg_.telemetry != nullptr)
    cfg_.telemetry->record_delivery(0, to, step_);
  if (cfg_.profile != nullptr) ++cfg_.profile->callbacks_receive;
  Ctx ctx(*this, to);
  rx_payload_ = m.payload;  // ambient digest for ctx_mark_colored
  store_.node(to).on_receive(ctx, m);
  rx_payload_ = 0;
}

template <class Node>
RunMetrics Engine<Node>::run_impl() {
  store_.reset(cfg_, params_);
  wire_.reset(cfg_);
  rx_payload_ = 0;
  counts_ = MessageCounts{};
  // Reset the ring to D+1 empty slots, keeping each slot's capacity when
  // the delay structure is unchanged (the trial-farm steady state).
  const auto cal_slots = static_cast<std::size_t>(wire_.max_delay()) + 1;
  if (calendar_.size() == cal_slots) {
    for (auto& slot : calendar_) slot.clear();
  } else {
    calendar_.assign(cal_slots, {});
  }
  if (cfg_.rx == RxPolicy::kOnePerStep)
    inbox_.reset(static_cast<std::size_t>(cfg_.n));
  in_flight_ = 0;
  active_count_ = 0;
  wake_.reset(cfg_.n, kSleeps<Node>);
  next_wake_ = kNever;
  metrics_ = RunMetrics{};
  step_ = 0;

  // Sort crash events (online failures + restart downs, in that order for
  // same-step determinism across engines) and revivals by time.  Member
  // scratch so reruns reuse the vectors' capacity.
  auto& online = online_scratch_;
  online.clear();
  online.insert(online.end(), cfg_.failures.online.begin(),
                cfg_.failures.online.end());
  for (const auto& r : cfg_.failures.restarts)
    online.push_back({r.node, r.down_at});
  std::stable_sort(online.begin(), online.end(),
                   [](const OnlineFailure& a, const OnlineFailure& b) {
                     return a.at_step < b.at_step;
                   });
  std::size_t next_failure = 0;
  auto& revives = revive_scratch_;
  revives.clear();
  revives.insert(revives.end(), cfg_.failures.restarts.begin(),
                 cfg_.failures.restarts.end());
  std::stable_sort(revives.begin(), revives.end(),
                   [](const Restart& a, const Restart& b) {
                     return a.up_at < b.up_at;
                   });
  std::size_t next_revive = 0;

  EngineProfile* prof = cfg_.profile;
  if (prof != nullptr) *prof = EngineProfile{};
  if (cfg_.telemetry != nullptr) cfg_.telemetry->attach(cfg_.n, 1);
  const auto prof_run0 = ProfileClock::now();

  // Start: root is active; everyone alive gets on_start.  The root counts
  // as activated at step 0 (colored at 0, first emission at step 1).
  ctx_activate(cfg_.root);
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!store_.alive(i)) continue;
    if (prof != nullptr) ++prof->callbacks_start;
    Ctx ctx(*this, i);
    store_.node(i).on_start(ctx);
  }

  const Step max_steps = cfg_.effective_max_steps();
  auto& due = due_;  // member scratch (capacity persists across runs)
  // Pending revivals count as outstanding work: the run must reach every
  // scheduled restart so the final population is a function of the
  // schedule alone (the sharded engine reconstructs the same exit step).
  while (active_count_ > 0 || in_flight_ > 0 || next_revive < revives.size()) {
    if (step_ >= max_steps) {
      metrics_.hit_max_steps = true;
      break;
    }

    auto prof_phase0 = prof != nullptr ? ProfileClock::now()
                                       : ProfileClock::TimePoint{};

    // 1. crash failures scheduled at or before this step, then revivals
    while (next_failure < online.size() && online[next_failure].at_step <= step_) {
      apply_failure(online[next_failure].node);
      ++next_failure;
    }
    while (next_revive < revives.size() && revives[next_revive].up_at <= step_) {
      apply_restart(revives[next_revive].node);
      ++next_revive;
    }

    // 2. deliveries scheduled for this step
    auto& slot = calendar_[static_cast<std::size_t>(
        step_ % static_cast<Step>(calendar_.size()))];
    due.clear();
    due.swap(slot);
    if (prof != nullptr)
      prof->events_fired += static_cast<std::int64_t>(due.size());
    if (cfg_.rx == RxPolicy::kDrainAll) {
      // Receivers arrive in near-random order, so each dispatch starts
      // with a cold miss on the target node: prefetch the node's header
      // lines several entries ahead to overlap those misses with the
      // preceding handlers.
      for (std::size_t k = 0; k < due.size(); ++k) {
        if (k + 6 < due.size()) {
          const auto* nxt =
              reinterpret_cast<const char*>(&store_.node(due[k + 6].to));
          __builtin_prefetch(nxt);
          __builtin_prefetch(nxt + 64);
        }
        dispatch(due[k].to, due[k].msg);
      }
    } else {
      // Queue this step's arrivals in canonical order, then consume at
      // most one message per node, in node-id order.
      inbox_.push_due(due, 0);
      inbox_.pop_each([&](NodeId i, const Message& m) { dispatch(i, m); });
    }

    if (prof != nullptr) {
      prof->deliver_s += ProfileClock::seconds_since(prof_phase0);
      prof_phase0 = ProfileClock::now();
    }

    // 3. ticks over the Active, awake nodes - a node activated at step c
    // (first receive, or the root at step 0) may only emit from step c+1
    // (its receive occupied step c), so its first tick is skipped.
    if (step_ >= next_wake_) next_wake_ = wake_.wake_due(0, cfg_.n, step_);
    NodeId awake = 0;  // nodes left awake (a few may have just completed)
    store_.active_bits().for_each_set_and(wake_.awake(), 0, cfg_.n,
                                          [&](NodeId i) {
      ++awake;
      if (store_.activated_at(i) == step_) return;
      if (prof != nullptr) ++prof->callbacks_tick;
      Ctx ctx(*this, i);
      auto& nd = store_.node(i);
      nd.on_tick(ctx);
      const Step wake = next_tick_of(nd, step_ + 1);
      if (wake > step_ + 1 && store_.active_bits().test(i)) {
        wake_.sleep(i, wake, next_wake_);
        --awake;
      }
    });
    if (prof != nullptr) prof->tick_s += ProfileClock::seconds_since(prof_phase0);

    ++step_;
    if (cfg_.heartbeat != nullptr) {
      cfg_.heartbeat->beat(step_, max_steps, 0);
    } else if (awake == 0 && in_flight_ == 0 &&
               (active_count_ > 0 || next_revive < revives.size())) {
      // Quiescent: every Active node sleeps and nothing is in flight, so
      // no step before the next wake, crash or revival can act.
      Step next = std::min(next_wake_, max_steps);
      if (next_failure < online.size())
        next = std::min(next, online[next_failure].at_step);
      if (next_revive < revives.size())
        next = std::min(next, revives[next_revive].up_at);
      step_ = std::max(step_, next);
    }
  }

  if (prof != nullptr) {
    prof->steps = step_;
    prof->wall_s = ProfileClock::seconds_since(prof_run0);
    std::size_t fp = store_.footprint_bytes() + wake_.footprint_bytes() +
                     inbox_.footprint_bytes() +
                     due_.capacity() * sizeof(Delivery);
    for (const auto& slot : calendar_) fp += slot.capacity() * sizeof(Delivery);
    prof->bytes_per_node =
        static_cast<std::int64_t>(fp / static_cast<std::size_t>(cfg_.n));
    prof->peak_rss_bytes = current_peak_rss_bytes();
  }
  return finalize();
}

template <class Node>
RunMetrics Engine<Node>::finalize() {
  counts_.merge_into(metrics_);
  store_.finalize(metrics_, cfg_.root, step_, cfg_.record_node_detail);
  if (cfg_.telemetry != nullptr) cfg_.telemetry->finish_run(metrics_);
  return metrics_;
}

}  // namespace cg
