// Window-sharded execution over the shared model (src/sim/core/) - the
// engine for million-node runs.  It runs on the same NodeStore, Wire,
// InboxSlab and WakeSet as the stepped oracle (sim/engine.hpp) and keeps
// only its scheduling: the windows, the boundary outboxes and lazy kills.
//
// Nodes are split into contiguous 64-aligned blocks, one per shard, and
// each shard owns a PRIVATE delivery calendar (a ring of slots) plus the
// NodeStore entries of its block.  The LogP model gives a
// conservative lookahead: every message emitted at step s is delivered no
// earlier than s + L/O + 1 (jitter, stragglers and link extras only ADD
// delay), so a window of W = L/O + 1 steps can be simulated by every
// shard INDEPENDENTLY - all deliveries inside the window were scheduled
// in earlier windows and already sit in the owning shard's calendar.
//
// Structure per window, for each shard:
//   phase A: run the window's W steps locally - revivals, due deliveries,
//            tick sweep over the Active AND awake bitmaps; same-shard
//            sends go straight into the private calendar, cross-shard
//            sends into the shard's parity outbox;
//   barrier (SenseBarrier; completion folds per-shard deltas, flushes
//            trace buffers in shard order, advances the window, decides
//            termination);
//   phase B: drain every other shard's parity outbox into the private
//            calendar (owned destinations only).
//
// One barrier per WINDOW.  The second barrier (between phase B and the
// next phase A) is replaced by outboxes double-buffered by window parity:
// phase A of window k writes outbox[k&1], phase B of window k reads every
// shard's outbox[k&1], and the owner clears it again only at phase A of
// window k+2 - after every reader has passed the barrier that ends window
// k+1.  Phase B writes only calendars its shard owns, so B(k) and A(k+1)
// overlap across shards freely.  Each due calendar slot is sorted by
// (send step, sender) before dispatch - a unique key, since the Wire admits
// one emission per node per step - which realizes the canonical
// (step, sender, dest) boundary-exchange order without caring how or when
// entries were inserted, so traces and metrics are byte-identical across
// shard counts (tests/test_sharded_engine.cpp sweeps {1, 2, 8}).
//
// Crash schedules are applied LAZILY, which is what lets a shard run past
// global quiescence without rollback: a kill becomes visible the moment
// the node would otherwise act (tick sweep, delivery, revival) and is
// stamped with its SCHEDULED step; crashes of untouched nodes are applied
// after the run, gated to the reconstructed end step, so the final
// population matches the stepped engine exactly.  The end step itself is
// reconstructed as 1 + the last completion / active-kill / consumption /
// revival - precisely the event that kept the stepped engine's
// active/in-flight/pending-restart condition true - so t_end, and with it
// every RunMetrics field, matches the stepped engine.
//
// Protocols run unchanged through BasicCtx, under the node contract of
// sim/engine.hpp.  The tick sweep visits Active AND awake nodes only
// (sim/core/wake_set.hpp): a node that reports via next_tick that its
// next ticks are no-ops sleeps until a receive or its wake step, which is
// capped at its pending crash step so a lazy kill still fires exactly on
// schedule.  Each shard tracks the earliest wake step of its sleepers;
// when nothing is in flight and no shard has an awake Active node, the
// next window starts at the earliest wake or revival step instead.
//
// Shard workers run on the persistent process-wide cg_pool (ROADMAP item:
// no per-run std::thread spawns).  One parallel_for spans the whole run -
// each shard holds its pool slot across every window and the shards meet
// at a SenseBarrier between windows, so the one-sync-per-window structure
// (and its cost) matches the dedicated-thread design it replaces.
#pragma once

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sync_barrier.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/core/basic_ctx.hpp"
#include "sim/core/inbox.hpp"
#include "sim/core/network_model.hpp"
#include "sim/core/node_store.hpp"
#include "sim/core/profile.hpp"
#include "sim/core/run_config.hpp"
#include "sim/core/wake_set.hpp"
#include "sim/core/wire.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace cg {

template <class Node>
class ShardedEngine {
 public:
  using Params = typename Node::Params;

  /// BasicCtx host: the engine plus the shard the callback runs on.
  struct ShardView {
    ShardedEngine* eng;
    int shard;

    Step ctx_now() const { return eng->shards_[st()].now; }
    const RunConfig& ctx_cfg() const { return eng->cfg_; }
    Xoshiro256& ctx_rng(NodeId i) { return eng->store_.rng(i); }
    void ctx_send(NodeId from, NodeId to, const Message& m) {
      eng->do_send(shard, from, to, m);
    }
    void ctx_activate(NodeId i) { eng->do_activate(shard, i); }
    void ctx_mark_colored(NodeId i) {
      if (eng->store_.mark_colored(i, ctx_now(),
                                   eng->shards_[st()].rx_payload)) {
        eng->trace(shard, {ctx_now(), TraceEvent::Kind::kColored, i, kNoNode,
                           Tag::kGossip});
        if (eng->cfg_.telemetry != nullptr)
          eng->cfg_.telemetry->record_colored(shard, ctx_now());
      }
    }
    void ctx_adopt_payload(NodeId i, std::uint32_t d) {
      eng->store_.set_held_payload(i, d);
    }
    void ctx_deliver(NodeId i) {
      if (eng->store_.mark_delivered(i, ctx_now()))
        eng->trace(shard, {ctx_now(), TraceEvent::Kind::kDelivered, i, kNoNode,
                           Tag::kGossip});
    }
    void ctx_complete(NodeId i) { eng->do_complete(shard, i); }
    bool ctx_colored(NodeId i) const { return eng->store_.colored(i); }
    void ctx_note_dropped(NodeId) {
      eng->shards_[st()].counts.add_dropped();
    }

   private:
    std::size_t st() const { return static_cast<std::size_t>(shard); }
  };
  using Ctx = BasicCtx<ShardView>;

  ShardedEngine(RunConfig cfg, Params params, int shards)
      : cfg_(std::move(cfg)), params_(std::move(params)),
        nshards_(std::max(1, shards)) {
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
  }

  RunMetrics run();

  /// Run with a fresh config/params on this engine's shard count, reusing
  /// its node slab and RNG streams - the same trial-farm re-entry
  /// Engine::run(cfg, params) offers.  run()
  /// resets every per-run field, so this produces exactly the metrics a
  /// fresh ShardedEngine would.
  RunMetrics run(const RunConfig& cfg, const Params& params) {
    cfg_ = cfg;  // copy-assign: vector members reuse capacity
    params_ = params;
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
    return run();
  }

 private:
  struct Delivery {
    Step sent_at;  ///< emission step; (sent_at, msg.src) is a unique key
    NodeId to;
    Message msg;
  };

  struct Boundary {
    Step at;       ///< absolute delivery step
    Step sent_at;
    NodeId to;
    Message msg;
  };

  // Everything one shard mutates during a window, cache-line-separated.
  struct alignas(64) ShardState {
    NodeId lo = 0, hi = 0;  ///< owned node block [lo, hi)
    Step now = 0;           ///< shard-local current step inside a window
    std::vector<std::vector<Delivery>> calendar;  // private ring, D+1 slots
    std::array<std::vector<Boundary>, 2> outbox;  // indexed by window parity
    InboxSlab inbox;        // kOnePerStep; local-node indexed
    std::vector<Restart> revives;  // owned revivals, sorted by up_at
    std::size_t next_revive = 0;
    Step next_wake = kNever;  ///< earliest wake step of the shard's sleepers
    bool all_asleep = false;  ///< no Active node awake after the window
    // Per-window deltas, folded by the barrier completion.
    std::int64_t active_delta = 0;
    std::int64_t sent = 0;
    std::int64_t delivered = 0;
    std::int64_t revived = 0;
    Step last_activity = -1;  ///< see file comment (end-step reconstruction)
    std::uint32_t rx_payload = 0;  ///< digest of the message being dispatched
    MessageCounts counts;
    std::vector<TraceEvent> trace;
    // Self-profiling.
    std::int64_t prof_receive = 0;
    std::int64_t prof_tick = 0;
    std::int64_t prof_scheduled = 0;
    std::int64_t prof_fired = 0;
    std::int64_t prof_max_bucket = 0;
    std::int64_t boundary_msgs = 0;
    std::int64_t window_stalls = 0;
    double prof_a_s = 0;
    double prof_b_s = 0;

    /// Reset for a new run on block [block_lo, block_hi) with a
    /// `cal_slots`-slot calendar.  Every field returns to its default but
    /// the buffers, which keep their capacity (the trial-farm steady
    /// state): calendar slots survive when the delay structure is
    /// unchanged, as on the stepped engine.
    void reset(NodeId block_lo, NodeId block_hi, std::size_t cal_slots) {
      ShardState fresh;
      fresh.calendar = std::move(calendar);
      fresh.outbox = std::move(outbox);
      fresh.inbox = std::move(inbox);
      fresh.revives = std::move(revives);
      fresh.trace = std::move(trace);
      *this = std::move(fresh);
      lo = block_lo;
      hi = block_hi;
      if (calendar.size() == cal_slots) {
        for (auto& slot : calendar) slot.clear();
      } else {
        calendar.assign(cal_slots, {});
      }
      for (auto& ob : outbox) ob.clear();
      revives.clear();
      trace.clear();
    }
  };

  int owner_of(NodeId i) const {
    return std::min(static_cast<int>(i / block_), nshards_ - 1);
  }

  void do_send(int shard, NodeId from, NodeId to, const Message& m) {
    auto& st = shards_[static_cast<std::size_t>(shard)];
    // The Byzantine transform inside Wire::send runs BEFORE owner_of(to): a
    // spammer's redirected destination decides same-shard vs boundary.
    Message out = m;
    const Step at =
        wire_.send(from, to, out, store_.held_payload(from), st.now, st.counts,
                   cfg_.trace != nullptr,
                   [&st](TraceEvent ev) { st.trace.push_back(ev); });
    if (at == Wire::kDropped) return;
    ++st.sent;
    if (cfg_.profile != nullptr) ++st.prof_scheduled;
    const int dest = owner_of(to);
    if (dest == shard || in_start_) {
      // Same shard (or the single-threaded on_start phase): straight into
      // the destination's private calendar.  `at > now`, so this never
      // touches the slot currently being dispatched.
      auto& ds = shards_[static_cast<std::size_t>(dest)];
      ds.calendar[ring_slot(ds, at)].push_back({st.now, to, out});
    } else {
      st.outbox[static_cast<std::size_t>(win_parity_)].push_back(
          {at, st.now, to, out});
      ++st.boundary_msgs;
    }
  }

  void do_activate(int shard, NodeId i) {
    auto& st = shards_[static_cast<std::size_t>(shard)];
    if (!store_.activate(i, st.now)) return;
    ++st.active_delta;
    wake_.wake(i);
  }

  void do_complete(int shard, NodeId i) {
    auto& st = shards_[static_cast<std::size_t>(shard)];
    const auto t = store_.complete(i, st.now);
    if (!t.changed) return;
    if (t.was_active) {
      --st.active_delta;
      st.last_activity = std::max(st.last_activity, st.now);
    }
    trace(shard, {st.now, TraceEvent::Kind::kComplete, i, kNoNode, Tag::kGossip});
  }

  /// Apply a pending crash the moment the node would otherwise act.  The
  /// event is stamped with the SCHEDULED step (what the stepped engine
  /// recorded), not the discovery step; an Active node is always caught at
  /// exactly its scheduled step because Active nodes are swept every step.
  void maybe_lazy_kill(int shard, NodeId i, Step s) {
    const auto idx = static_cast<std::size_t>(i);
    const Step ca = crash_at_[idx];
    if (ca > s) return;
    crash_at_[idx] = kNever;
    const Step kill_step = std::max<Step>(ca, 0);
    const auto t = store_.kill(i);
    if (!t.changed) return;
    auto& st = shards_[static_cast<std::size_t>(shard)];
    if (t.was_active) {
      --st.active_delta;
      st.last_activity = std::max(st.last_activity, kill_step);
    }
    trace(shard, {kill_step, TraceEvent::Kind::kFail, i, kNoNode, Tag::kGossip});
  }

  void dispatch(int shard, NodeId to, const Message& m, Step s) {
    if (any_crash_) maybe_lazy_kill(shard, to, s);
    if (!store_.alive(to) || store_.done(to)) return;  // dropped
    do_activate(shard, to);
    wake_.wake(to);
    if (cfg_.trace != nullptr)
      trace(shard, {s, TraceEvent::Kind::kDeliver, to, m.src, m.tag});
    // Cell = shard; node `to` is shard-owned, so the telemetry stamp/pend
    // arrays see each node from exactly one thread.
    if (cfg_.telemetry != nullptr)
      cfg_.telemetry->record_delivery(shard, to, s);
    if (cfg_.profile != nullptr)
      ++shards_[static_cast<std::size_t>(shard)].prof_receive;
    ShardView view{this, shard};
    Ctx ctx(view, to);
    auto& st = shards_[static_cast<std::size_t>(shard)];
    st.rx_payload = m.payload;  // ambient digest for ctx_mark_colored
    store_.node(to).on_receive(ctx, m);
    st.rx_payload = 0;
  }

  void trace(int shard, TraceEvent ev) {
    if (cfg_.trace != nullptr)
      shards_[static_cast<std::size_t>(shard)].trace.push_back(ev);
  }

  // Single-threaded (on_start, or inside the barrier completion).
  void flush_traces() {
    if (cfg_.trace == nullptr) return;
    for (auto& st : shards_) {
      for (const auto& ev : st.trace) cfg_.trace->on_event(ev);
      st.trace.clear();
    }
  }

  static std::size_t ring_slot(const ShardState& st, Step at) {
    return static_cast<std::size_t>(at %
                                    static_cast<Step>(st.calendar.size()));
  }

  /// Execute one window [win_lo, win_hi) on shard `sidx` (phase A).
  void run_window(int sidx, Step win_lo, Step win_hi);

  void fold_deltas() {
    for (auto& st : shards_) {
      active_count_ += st.active_delta;
      in_flight_ += st.sent - st.delivered;
      pending_restarts_ -= st.revived;
      last_activity_ = std::max(last_activity_, st.last_activity);
      st.active_delta = 0;
      st.sent = 0;
      st.delivered = 0;
      st.revived = 0;
    }
  }

  bool quiescent() const {
    return active_count_ == 0 && in_flight_ == 0 && pending_restarts_ == 0;
  }

  /// With nothing in flight: the first step at which any node can act
  /// again - a wake or a revival, capped at `cap` - or 0 while some shard
  /// still has an awake Active node.
  Step next_event(Step cap) const {
    Step next = cap;
    for (const auto& st : shards_) {
      if (!st.all_asleep) return 0;
      next = std::min(next, st.next_wake);
      if (st.next_revive < st.revives.size())
        next = std::min(next, st.revives[st.next_revive].up_at);
    }
    return next;
  }

  std::size_t footprint_bytes() const {
    std::size_t fp = store_.footprint_bytes() + wake_.footprint_bytes() +
                     crash_at_.capacity() * sizeof(Step);
    for (const auto& st : shards_) {
      for (const auto& slot : st.calendar) fp += slot.capacity() * sizeof(Delivery);
      for (const auto& ob : st.outbox) fp += ob.capacity() * sizeof(Boundary);
      fp += st.inbox.footprint_bytes();
    }
    return fp;
  }

  RunConfig cfg_;
  Params params_;
  int nshards_;
  NodeId block_ = 1;  // nodes per shard block (64-aligned)
  Step window_ = 1;   // W = L/O + 1, the conservative lookahead

  NodeStore<Node> store_;
  WakeSet wake_;
  Wire wire_;
  std::vector<Step> crash_at_;    // pending scheduled crash (kNever = none)
  bool any_crash_ = false;        // any online failure or restart scheduled
  std::vector<ShardState> shards_;

  // Window bookkeeping (written single-threaded: setup or completion fn).
  Step window_lo_ = 0;
  int win_parity_ = 0;
  bool in_start_ = false;
  bool stop_ = false;
  std::int64_t windows_done_ = 0;
  std::int64_t active_count_ = 0;
  std::int64_t in_flight_ = 0;
  std::int64_t pending_restarts_ = 0;
  Step last_activity_ = -1;
  RunMetrics metrics_{};
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <class Node>
void ShardedEngine<Node>::run_window(int sidx, Step win_lo, Step win_hi) {
  auto& st = shards_[static_cast<std::size_t>(sidx)];
  const bool one_per_step = cfg_.rx == RxPolicy::kOnePerStep;
  const bool profiled = cfg_.profile != nullptr;
  const std::int64_t boundary0 = st.boundary_msgs;
  bool did_work = false;
  NodeId awake = 0;  // nodes the step's sweep left awake (some may be done)

  for (Step s = win_lo; s < win_hi; ++s) {
    st.now = s;

    // 1. revivals due this step (force any still-pending crash first: the
    // node must be dead before it can rejoin).
    while (st.next_revive < st.revives.size() &&
           st.revives[st.next_revive].up_at <= s) {
      const NodeId i = st.revives[st.next_revive].node;
      ++st.next_revive;
      did_work = true;
      maybe_lazy_kill(sidx, i, s);
      if (store_.revive(i, params_)) {
        ++st.revived;
        st.last_activity = std::max(st.last_activity, s);
        trace(sidx, {s, TraceEvent::Kind::kRestart, i, kNoNode, Tag::kGossip});
      }
    }

    // 2. deliveries due this step, in canonical (send step, sender) order.
    auto& slot = st.calendar[ring_slot(st, s)];
    if (!slot.empty()) {
      did_work = true;
      if (profiled) {
        st.prof_fired += static_cast<std::int64_t>(slot.size());
        st.prof_max_bucket = std::max(
            st.prof_max_bucket, static_cast<std::int64_t>(slot.size()));
      }
      // Canonical (send step, sender) order.  Own-shard inserts already
      // arrive in program order - ascending send step, and protocols emit
      // from the node-ascending tick sweep - so a slot is usually sorted
      // already and the check is a single linear scan; only slots that
      // took phase-B boundary appends (or dispatch-phase sends) pay the
      // sort.
      const auto canon = [](const Delivery& a, const Delivery& b) {
        return a.sent_at != b.sent_at ? a.sent_at < b.sent_at
                                      : a.msg.src < b.msg.src;
      };
      if (!std::is_sorted(slot.begin(), slot.end(), canon))
        std::sort(slot.begin(), slot.end(), canon);
      st.delivered += static_cast<std::int64_t>(slot.size());
      st.last_activity = std::max(st.last_activity, s);
      if (!one_per_step) {
        for (const auto& d : slot) dispatch(sidx, d.to, d.msg, s);
      } else {
        st.inbox.push_due(slot, st.lo);
        st.delivered -= static_cast<std::int64_t>(slot.size());  // on pop
      }
      slot.clear();
    }
    if (one_per_step) {
      // Consume at most one queued message per node, in node-id order,
      // even for dead/done nodes (as on the stepped engine).
      st.inbox.pop_each([&](NodeId local, const Message& m) {
        did_work = true;
        ++st.delivered;
        st.last_activity = std::max(st.last_activity, s);
        dispatch(sidx, st.lo + local, m, s);
      });
    }

    // 3. tick sweep over the Active, awake nodes (idle, done and sleeping
    // nodes cost nothing - the flat-plan payoff).  A node activated this
    // step skips its tick.
    if (s >= st.next_wake) st.next_wake = wake_.wake_due(st.lo, st.hi, s);
    awake = 0;
    store_.active_bits().for_each_set_and(wake_.awake(), st.lo, st.hi,
                                        [&](NodeId i) {
      if (any_crash_ && crash_at_[static_cast<std::size_t>(i)] <= s) {
        maybe_lazy_kill(sidx, i, s);
        return;
      }
      ++awake;
      if (store_.activated_at(i) == s) return;
      did_work = true;
      if (profiled) ++st.prof_tick;
      ShardView view{this, sidx};
      Ctx ctx(view, i);
      auto& nd = store_.node(i);
      nd.on_tick(ctx);
      const Step wake = next_tick_of(nd, s + 1);
      if (wake > s + 1 && store_.active_bits().test(i)) {
        wake_.sleep(i, std::min(wake, crash_at_[static_cast<std::size_t>(i)]),
                    st.next_wake);
        --awake;
      }
    });
  }
  st.all_asleep = awake == 0;
  if (!did_work) ++st.window_stalls;
  // Per-window boundary traffic: a property of THIS shard layout (not part
  // of the engine-invariant telemetry slice; see obs/telemetry.hpp).
  if (cfg_.telemetry != nullptr)
    cfg_.telemetry->record_window_boundary(sidx, st.boundary_msgs - boundary0);
}

template <class Node>
RunMetrics ShardedEngine<Node>::run() {
  const auto n = static_cast<std::size_t>(cfg_.n);
  // 64-aligned contiguous blocks: bitmap words and byte arrays stay
  // owner-disjoint, and each shard's writes stay on its own cache lines.
  block_ = (cfg_.n + static_cast<NodeId>(nshards_) - 1) /
           static_cast<NodeId>(nshards_);
  block_ = ((block_ + 63) / 64) * 64;
  if (block_ < 1) block_ = 1;
  window_ = cfg_.logp.delivery_delay();
  CG_CHECK(window_ >= 1);

  store_.reset(cfg_, params_);
  wire_.reset(cfg_);
  crash_at_.assign(n, kNever);

  const auto cal_slots = static_cast<std::size_t>(wire_.max_delay()) + 1;
  shards_.resize(static_cast<std::size_t>(nshards_));  // reruns keep them
  for (int w = 0; w < nshards_; ++w) {
    auto& st = shards_[static_cast<std::size_t>(w)];
    st.reset(std::min(static_cast<NodeId>(w) * block_, cfg_.n),
             std::min((static_cast<NodeId>(w) + 1) * block_, cfg_.n),
             cal_slots);
    if (cfg_.rx == RxPolicy::kOnePerStep)
      st.inbox.reset(static_cast<std::size_t>(st.hi - st.lo));
  }

  metrics_ = RunMetrics{};
  any_crash_ =
      !cfg_.failures.online.empty() || !cfg_.failures.restarts.empty();
  wake_.reset(cfg_.n, kSleeps<Node>);
  window_lo_ = 0;
  win_parity_ = 0;
  windows_done_ = 0;
  active_count_ = 0;
  in_flight_ = 0;
  pending_restarts_ = 0;
  last_activity_ = -1;
  stop_ = false;

  for (const auto& of : cfg_.failures.online) {
    auto& ca = crash_at_[static_cast<std::size_t>(of.node)];
    ca = std::min(ca, of.at_step);
  }
  for (const auto& r : cfg_.failures.restarts) {
    const auto idx = static_cast<std::size_t>(r.node);
    crash_at_[idx] = std::min(crash_at_[idx], r.down_at);
    shards_[static_cast<std::size_t>(owner_of(r.node))].revives.push_back(r);
    ++pending_restarts_;
  }
  for (auto& st : shards_)
    std::stable_sort(st.revives.begin(), st.revives.end(),
                     [](const Restart& a, const Restart& b) {
                       return a.up_at < b.up_at;
                     });

  EngineProfile* prof = cfg_.profile;
  if (prof != nullptr) *prof = EngineProfile{};
  if (cfg_.telemetry != nullptr) cfg_.telemetry->attach(cfg_.n, nshards_);
  const auto prof_run0 = ProfileClock::now();

  // Start: single-threaded on_start at step 0; sends land directly in the
  // destination shard's calendar (in_start_ gates the outbox path).
  store_.activate(cfg_.root, 0);
  wake_.wake(cfg_.root);
  active_count_ = 1;
  in_start_ = true;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!store_.alive(i)) continue;
    if (prof != nullptr) ++prof->callbacks_start;
    ShardView view{this, owner_of(i)};
    Ctx ctx(view, i);
    store_.node(i).on_start(ctx);
  }
  in_start_ = false;
  fold_deltas();
  last_activity_ = -1;  // on_start activity is folded into the t_end=0 case
  flush_traces();

  const Step max_steps = cfg_.effective_max_steps();
  Step t_end = 0;

  if (quiescent()) {
    // Quiescent straight out of on_start (e.g. n == 1): the stepped
    // engine's loop never runs and t_end stays 0.
    t_end = 0;
  } else {
    auto on_window_done = [this, max_steps]() noexcept {
      fold_deltas();
      flush_traces();
      window_lo_ = std::min(window_lo_ + window_, max_steps);
      win_parity_ ^= 1;
      ++windows_done_;
      if (cfg_.heartbeat != nullptr)  // single-threaded: between windows
        cfg_.heartbeat->beat(window_lo_, max_steps, 0);
      if (quiescent()) {
        stop_ = true;
        return;
      }
      if (in_flight_ == 0 && cfg_.heartbeat == nullptr)
        window_lo_ = std::max(window_lo_, next_event(max_steps));
      if (window_lo_ >= max_steps) {
        metrics_.hit_max_steps = true;
        stop_ = true;
      }
    };

    // One shard task per window.  Phase B - draining the PREVIOUS
    // window's sealed opposite-parity outboxes - runs at the start of the
    // task: every writer finished before the previous window's join, and
    // the per-slot canonical sort makes calendar insertion order
    // irrelevant, so traces stay byte-identical for any shard count and
    // any pool scheduling (a worker may even run several shards).
    const bool profiled = cfg_.profile != nullptr;
    auto window_task = [this, profiled](int sidx, std::int64_t k,
                                        std::size_t par, Step win_lo,
                                        Step win_hi) {
      auto& st = shards_[static_cast<std::size_t>(sidx)];
      if (k >= 1) {
        const auto prof_b0 =
            profiled ? ProfileClock::now() : ProfileClock::TimePoint{};
        for (const auto& other : shards_) {
          for (const auto& bm : other.outbox[par ^ 1]) {
            if (bm.to >= st.lo && bm.to < st.hi)
              st.calendar[ring_slot(st, bm.at)].push_back(
                  {bm.sent_at, bm.to, bm.msg});
          }
        }
        if (profiled) st.prof_b_s += ProfileClock::seconds_since(prof_b0);
      }
      // Reuse this parity's outbox: its readers (phase B of window k-1,
      // above) all completed before window k-1's join.
      if (k >= 2) st.outbox[par].clear();
      const auto prof_a0 =
          profiled ? ProfileClock::now() : ProfileClock::TimePoint{};
      run_window(sidx, win_lo, win_hi);
      if (profiled) st.prof_a_s += ProfileClock::seconds_since(prof_a0);
    };

    // Shard workers run on the persistent process-wide pool (no per-run
    // thread spawns).  A multi-shard run claims one pool slot per shard
    // for its WHOLE duration - one parallel_for per run, not per window -
    // and the shards meet at a SenseBarrier between windows, exactly the
    // dedicated-thread structure this replaces: dispatching a fresh pool
    // job every window costs two condvar hops per window, which is
    // measurable on CCG-sized runs.  Nested runs (this engine inside a
    // pool worker, e.g. --engine=sharded under the trial farm) and
    // single-shard runs take the sequential per-window loop instead: a
    // nested parallel_for executes its chunks inline on one thread, where
    // the barrier would deadlock.
    ThreadPool* pool = (nshards_ > 1 && !ThreadPool::in_pool_work())
                           ? &ThreadPool::global(nshards_)
                           : nullptr;
    if (pool != nullptr) {
      const unsigned hw = std::thread::hardware_concurrency();
      const int spin =
          (hw != 0 && static_cast<unsigned>(nshards_) <= hw) ? 2048 : 0;
      SenseBarrier bar(nshards_, on_window_done, spin);
      // Safe against a participant claiming two shards: nobody's chunk
      // body returns before window 0's barrier, which needs all nshards_
      // shards - so all chunks are claimed by distinct participants
      // (global(nshards_) guarantees enough of them) before any frees up.
      pool->parallel_for(
          nshards_, 1, nshards_, [&](std::int64_t b, std::int64_t e, int) {
            for (std::int64_t sidx = b; sidx < e; ++sidx) {
              for (std::int64_t k = 0;; ++k) {
                const Step win_lo = window_lo_;
                const Step win_hi = std::min(win_lo + window_, max_steps);
                const auto par = static_cast<std::size_t>(win_parity_);
                window_task(static_cast<int>(sidx), k, par, win_lo, win_hi);
                bar.arrive_and_wait();  // completion fn: on_window_done
                if (stop_) break;
              }
            }
          });
    } else {
      for (std::int64_t k = 0; !stop_; ++k) {
        const Step win_lo = window_lo_;
        const Step win_hi = std::min(win_lo + window_, max_steps);
        const auto par = static_cast<std::size_t>(win_parity_);
        for (int sidx = 0; sidx < nshards_; ++sidx)
          window_task(sidx, k, par, win_lo, win_hi);
        on_window_done();
      }
    }

    t_end = metrics_.hit_max_steps ? max_steps : last_activity_ + 1;
  }

  // Crashes of nodes the run never touched (cold kills): apply those the
  // stepped engine would have reached - scheduled strictly before t_end.
  if (any_crash_) for (NodeId i = 0; i < cfg_.n; ++i) {
    const Step ca = crash_at_[static_cast<std::size_t>(i)];
    if (ca == kNever || ca >= t_end) continue;
    const auto t = store_.kill(i);
    if (t.changed && cfg_.trace != nullptr)
      cfg_.trace->on_event({std::max<Step>(ca, 0), TraceEvent::Kind::kFail, i,
                            kNoNode, Tag::kGossip});
  }

  if (prof != nullptr) {
    for (const auto& st : shards_) {
      prof->callbacks_receive += st.prof_receive;
      prof->callbacks_tick += st.prof_tick;
      prof->events_scheduled += st.prof_scheduled;
      prof->events_fired += st.prof_fired;
      prof->queue_max_bucket =
          std::max(prof->queue_max_bucket, st.prof_max_bucket);
      prof->deliver_s = std::max(prof->deliver_s, st.prof_a_s);
      prof->route_s = std::max(prof->route_s, st.prof_b_s);
      prof->boundary_msgs += st.boundary_msgs;
      prof->window_stalls += st.window_stalls;
      prof->shard_stats.push_back(
          {st.prof_fired, st.boundary_msgs, st.window_stalls});
    }
    prof->shards = nshards_;
    prof->windows = windows_done_;
    prof->steps = t_end;
    prof->bytes_per_node =
        static_cast<std::int64_t>(footprint_bytes() / n);
    prof->peak_rss_bytes = current_peak_rss_bytes();
    prof->wall_s = ProfileClock::seconds_since(prof_run0);
  }
  for (const auto& st : shards_) st.counts.merge_into(metrics_);
  store_.finalize(metrics_, cfg_.root, t_end, cfg_.record_node_detail);
  if (cfg_.telemetry != nullptr) cfg_.telemetry->finish_run(metrics_);
  return metrics_;
}

}  // namespace cg
