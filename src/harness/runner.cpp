#include "harness/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "baselines/bfb.hpp"
#include "baselines/big.hpp"
#include "baselines/opt_tree.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "gossip/ccg.hpp"
#include "gossip/fcg.hpp"
#include "gossip/gos.hpp"
#include "gossip/ocg.hpp"
#include "gossip/ocg_chain.hpp"
#include "gossip/sbrb.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/fault/validate.hpp"

namespace cg {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kGos: return "GOS";
    case Algo::kOcg: return "OCG";
    case Algo::kCcg: return "CCG";
    case Algo::kFcg: return "FCG";
    case Algo::kOcgChain: return "OCG-CHAIN";
    case Algo::kBig: return "BIG";
    case Algo::kBfb: return "BFB";
    case Algo::kOpt: return "opt";
    case Algo::kSbrb: return "SBRB";
  }
  return "?";
}

namespace {

constexpr std::pair<std::string_view, Algo> kAlgoNames[] = {
    {"gos", Algo::kGos},   {"ocg", Algo::kOcg},   {"ccg", Algo::kCcg},
    {"fcg", Algo::kFcg},   {"chain", Algo::kOcgChain},
    {"big", Algo::kBig},   {"bfb", Algo::kBfb},   {"opt", Algo::kOpt},
    {"sbrb", Algo::kSbrb},
};

}  // namespace

bool algo_from_name(std::string_view name, Algo& out) {
  for (const auto& [spelling, algo] : kAlgoNames) {
    if (name == spelling) {
      out = algo;
      return true;
    }
  }
  return false;
}

const char* algo_names_list() {
  return "gos|ocg|ccg|fcg|chain|big|bfb|opt|sbrb";
}

const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::kStepped: return "stepped";
    case EngineKind::kSharded: return "sharded";
  }
  return "?";
}

bool engine_from_name(std::string_view name, EngineKind& out) {
  for (EngineKind k : {EngineKind::kStepped, EngineKind::kSharded}) {
    if (name == engine_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* engine_names_list() { return "stepped, sharded"; }

ExecConfig exec_from_flags(const Flags& flags) {
  ExecConfig exec;
  const std::string name = flags.get_string("engine", "stepped");
  if (!engine_from_name(name, exec.engine)) {
    std::fprintf(stderr, "unknown --engine=%s (%s)\n", name.c_str(),
                 engine_names_list());
    std::exit(2);
  }
  exec.threads = static_cast<int>(flags.get_int_at_least("shards", 1, 1));
  return exec;
}

namespace {

// Build Node::Params for `algo` and hand <Node, params> to the runner
// functor (the one place the algo -> node-type mapping lives).
template <class Runner>
RunMetrics dispatch_algo(Runner&& r, Algo algo, const AlgoConfig& acfg,
                         const RunConfig& rcfg) {
  switch (algo) {
    case Algo::kGos:
      return r.template run<GosNode>(GosNode::Params{acfg.T});
    case Algo::kOcg: {
      CG_CHECK_MSG(acfg.ocg_corr_sends > 0, "OCG needs ocg_corr_sends");
      OcgNode::Params params;
      params.T = acfg.T;
      params.corr_sends = acfg.ocg_corr_sends;
      params.drain_extra = acfg.drain_extra;
      return r.template run<OcgNode>(params);
    }
    case Algo::kCcg: {
      CcgNode::Params params;
      params.T = acfg.T;
      params.drain_extra = acfg.drain_extra;
      params.reliable = acfg.reliable;
      return r.template run<CcgNode>(params);
    }
    case Algo::kFcg: {
      FcgNode::Params params;
      params.T = acfg.T;
      params.f = acfg.fcg_f;
      params.drain_extra = acfg.drain_extra;
      params.sos_timeout = acfg.fcg_sos_timeout;
      params.sos_enabled = acfg.fcg_sos_enabled;
      params.reliable = acfg.reliable;
      return r.template run<FcgNode>(params);
    }
    case Algo::kOcgChain: {
      CG_CHECK_MSG(acfg.ocg_corr_sends > 0, "OCG-CHAIN needs a K_bar");
      OcgChainNode::Params params;
      params.T = acfg.T;
      params.horizon = OcgChainNode::chain_horizon(
          acfg.T, static_cast<int>(acfg.ocg_corr_sends), rcfg.logp);
      return r.template run<OcgChainNode>(params);
    }
    case Algo::kBig:
      return r.template run<BigNode>(BigNode::Params{});
    case Algo::kBfb: {
      BfbNode::Params params;
      params.shared = BfbShared::make(rcfg.n, rcfg.root, rcfg.failures);
      params.quiet_period = 16 * rcfg.logp.delivery_delay() + 32;
      return r.template run<BfbNode>(params);
    }
    case Algo::kOpt: {
      OptNode::Params params;
      params.schedule = OptSchedule::build(rcfg.n, rcfg.logp);
      return r.template run<OptNode>(params);
    }
    case Algo::kSbrb: {
      SbrbNode::Params params;
      params.s = sbrb_samples(rcfg.n, acfg.sbrb_eps, acfg.sbrb_byz_frac);
      params.deadline = sbrb_deadline(params.s, rcfg.logp);
      return r.template run<SbrbNode>(params);
    }
  }
  CG_CHECK_MSG(false, "unknown algorithm");
  return {};
}

void check_config(const RunConfig& rcfg) {
  const std::string cfg_err = config_error(rcfg);
  CG_CHECK_MSG(cfg_err.empty(), cfg_err.c_str());
}

}  // namespace

RunMetrics run_once(Algo algo, const AlgoConfig& acfg, const RunConfig& rcfg,
                    const ExecConfig& exec) {
  return EngineCache{}.run_once(algo, acfg, rcfg, exec);
}

// ---------------------------------------------------------------------------
// EngineCache
// ---------------------------------------------------------------------------

namespace {

template <class Eng>
struct EngineSlot final : EngineCache::SlotBase {
  template <class... Args>
  explicit EngineSlot(int shards_, Args&&... args)
      : shards(shards_), eng(std::forward<Args>(args)...) {}
  int shards;  ///< the shard count eng was built with (0 = stepped)
  Eng eng;
};

struct CachedEngineRunner {
  std::unique_ptr<EngineCache::SlotBase>& slot;
  const RunConfig& rcfg;
  const ExecConfig& exec;

  template <class Node>
  RunMetrics run(const typename Node::Params& params) const {
    if (exec.engine == EngineKind::kSharded)
      return reuse<ShardedEngine<Node>>(exec.threads, params, exec.threads);
    return reuse<Engine<Node>>(0, params);
  }

  // Re-enter the cached engine when it is an `Eng` with `shards` shards;
  // otherwise drop it first (one engine alive at a time) and build anew.
  template <class Eng, class... Extra>
  RunMetrics reuse(int shards, const typename Eng::Params& params,
                   Extra... extra) const {
    auto* s = dynamic_cast<EngineSlot<Eng>*>(slot.get());
    if (s == nullptr || s->shards != shards) {
      slot.reset();
      slot = std::make_unique<EngineSlot<Eng>>(shards, rcfg, params, extra...);
      s = static_cast<EngineSlot<Eng>*>(slot.get());
    }
    return s->eng.run(rcfg, params);
  }
};

}  // namespace

EngineCache::EngineCache() = default;
EngineCache::~EngineCache() = default;
EngineCache::EngineCache(EngineCache&&) noexcept = default;
EngineCache& EngineCache::operator=(EngineCache&&) noexcept = default;

RunMetrics EngineCache::run_once(Algo algo, const AlgoConfig& acfg,
                                 const RunConfig& rcfg,
                                 const ExecConfig& exec) {
  check_config(rcfg);
  return dispatch_algo(CachedEngineRunner{slot_, rcfg, exec}, algo, acfg,
                       rcfg);
}

}  // namespace cg
