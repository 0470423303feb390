// Extension: broadcast latency on a two-level (rack) hierarchy.  The paper
// assumes a flat network; here cross-rack messages pay extra latency.
// With rack-contiguous ids the ring-based correction of corrected gossip
// is almost entirely intra-rack, while BIG's power-of-two offsets cross
// racks on most hops - so corrected gossip's advantage WIDENS on
// hierarchical machines.
//
//   ./ext_hierarchical [--n=1024] [--rack=32] [--trials=200] [--seed=1]
#include <cstdio>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"
#include "sim/topology.hpp"

namespace {

/// Trace sink that classifies sends by rack locality.
class RackTrace final : public cg::TraceSink {
 public:
  explicit RackTrace(cg::NodeId rack) : counter_{rack} {}
  void on_event(const cg::TraceEvent& ev) override {
    if (ev.kind == cg::TraceEvent::Kind::kSend)
      counter_.count(ev.node, ev.peer);
  }
  double cross_fraction() const { return counter_.cross_fraction(); }

 private:
  cg::CrossRackCounter counter_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = static_cast<NodeId>(flags.get_int("n", 1024));
  const auto rack = static_cast<NodeId>(flags.get_int("rack", 32));
  const int trials = static_cast<int>(flags.get_int("trials", 200));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.check_all_read();
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-4;

  bench::print_header("Extension: two-level rack hierarchy");
  std::printf("# N=%d, racks of %d, base L=2us O=1us; cross-rack messages "
              "pay +X us; %d trials\n", n, rack, trials);

  Table table({"extra X", "algo", "tuning", "lat[us]", "cross-rack msgs",
               "all-reached"});
  for (const Step extra : {0, 2, 4, 8}) {
    for (const Algo a : {Algo::kOcg, Algo::kCcg, Algo::kFcg, Algo::kBig}) {
      // flat = paper tuning (assumes uniform L); aware = drain window
      // padded by the cross-rack worst case (+ a T margin for the slower
      // gossip spread).
      for (const bool aware : {false, true}) {
        if (aware && (a == Algo::kBig || extra == 0)) continue;
        TunedAlgo tuned = tune_for(a, n, n, logp, eps, 1);
        if (aware) {
          tuned.acfg.drain_extra = extra;
          tuned.acfg.T += extra;  // gossip needs longer to spread too
          if (a == Algo::kOcg) tuned.acfg.ocg_corr_sends += 2;
        }
      RunningStat lat;
      double cross_frac = 0;
      std::int64_t reached = 0;
      for (int t = 0; t < trials; ++t) {
        RackTrace rt(rack);
        RunConfig cfg;
        cfg.n = n;
        cfg.logp = logp;
        cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(extra) * 997 +
                                         static_cast<std::uint64_t>(a) * 131 +
                                         static_cast<std::uint64_t>(t));
        cfg.link_extra = two_level_topology(rack, extra);
        cfg.link_extra_max = extra;
        cfg.trace = &rt;
        const RunMetrics m = run_once(a, tuned.acfg, cfg);
        const Step l = a == Algo::kBig
                           ? m.t_last_colored
                           : (m.t_complete == kNever ? m.t_end : m.t_complete);
        if (l != kNever) lat.add(logp.us(l));
        cross_frac += rt.cross_fraction();
        if (m.all_active_colored) ++reached;
      }
      table.add_row({Table::cell("%lld", static_cast<long long>(extra)),
                     algo_name(a), aware ? "aware" : "flat",
                     Table::cell("%.1f", lat.mean()),
                     Table::cell("%.0f%%", 100.0 * cross_frac / trials),
                     Table::cell("%lld/%d", static_cast<long long>(reached),
                                 trials)});
      }
    }
  }
  table.print();
  std::printf(
      "\n# reading: the CORRECTION phase is ring-local (watch the "
      "cross-rack share drop), but flat-tuned schedules assume the "
      "uniform L: OCG silently loses reach and CCG/FCG pay full-lap "
      "latency when gossip stragglers miss the drain window.  Padding "
      "the drain window by the cross-rack worst case ('aware' rows) "
      "restores reliability for moderate X; at extreme skew Eq. 1's "
      "uniform-L coloring forecast itself turns optimistic and the "
      "self-checking variants (CCG/FCG) are the robust choice.\n");
  return 0;
}
