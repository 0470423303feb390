// Extension: K concurrent broadcasts sharing each node's injection slot.
// A communication library rarely runs one broadcast at a time; this bench
// measures how corrected gossip's latency scales with concurrency when
// the per-node LogP send capacity is the bottleneck.
//
//   ./ext_concurrent [--n=512] [--trials=100] [--seed=1]
#include <cstdio>

#include "analysis/tuning.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "session/multibcast.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = static_cast<NodeId>(flags.get_int("n", 512));
  const int trials = static_cast<int>(flags.get_int("trials", 100));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.check_all_read();
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-4;

  const Tuning t = tune_ccg(n, n, logp, eps);
  const Step T = t.T_opt + 1;

  bench::print_header("Extension: K concurrent CCG broadcasts");
  std::printf("# N=%d, L=2us, O=1us, per-broadcast T=%lld, %d trials\n", n,
              static_cast<long long>(T), trials);

  Table table({"K", "lat[us] (all done)", "per-bcast overhead", "work",
               "all-reached"});
  double base = 0;
  for (const int k : {1, 2, 4, 8, 16}) {
    RunningStat lat, work;
    std::int64_t reached = 0;
    for (int tr = 0; tr < trials; ++tr) {
      MultiBcastNode::Params p;
      for (int b = 0; b < k; ++b)
        p.plans.push_back({static_cast<NodeId>(b * (n / k)), 0, T});
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = logp;
      cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(k) * 1000 +
                                       static_cast<std::uint64_t>(tr));
      Engine<MultiBcastNode> eng(cfg, p);
      const RunMetrics m = eng.run();
      if (m.all_active_colored) ++reached;
      lat.add(logp.us(m.t_complete == kNever ? m.t_end : m.t_complete));
      work.add(static_cast<double>(m.msgs_total));
    }
    if (k == 1) base = lat.mean();
    table.add_row({Table::cell("%d", k), Table::cell("%.1f", lat.mean()),
                   Table::cell("%.2fx", lat.mean() / base),
                   Table::cell("%.0f", work.mean()),
                   Table::cell("%lld/%d", static_cast<long long>(reached),
                               trials)});
  }
  table.print();
  std::printf("\n# reading: each extra in-flight broadcast shares the "
              "send slots, so completion grows sub-linearly in K while "
              "every broadcast still reaches every node (CCG's stop rules "
              "are slot-schedule independent)\n");
  return 0;
}
