// Extension benchmark: corrected-gossip all-reduce (max) - latency, work,
// and exactness across scales, with the BIG-style alternative (broadcast
// of a tree-reduced value) modeled for comparison.  Realizes the paper's
// conclusion that corrected gossip should extend to other collectives.
//
//   ./ext_allreduce [--max-n=4096] [--trials=150] [--seed=1]
#include <cstdio>

#include "analysis/baseline_models.hpp"
#include "analysis/tuning.hpp"
#include "bench_util.hpp"
#include "collectives/allreduce.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto max_n = static_cast<NodeId>(flags.get_int("max-n", 4096));
  const int trials = static_cast<int>(flags.get_int("trials", 150));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.check_all_read();
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-4;

  bench::print_header("Extension: corrected-gossip all-reduce (max)");
  std::printf("# L=2us, O=1us, eps=%.0e, %d trials per point\n", eps, trials);

  Table table({"N", "T", "sweeps C", "lat[us]", "work", "exact",
               "2x BIG bcast [us]"});
  for (NodeId n = 64; n <= max_n; n *= 2) {
    const Tuning t = tune_ocg(n, n, logp, eps);
    AllreduceNode::Params p;
    p.T = t.T_opt + 1;
    p.corr_sends = allreduce_sweeps(n, p.T, logp, eps);

    RunningStat lat, work;
    int exact = 0;
    for (int k = 0; k < trials; ++k) {
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = logp;
      cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(n) * 1000 +
                                       static_cast<std::uint64_t>(k));
      const AllreduceResult r = run_allreduce(p, cfg);
      lat.add(logp.us(r.t_complete));
      work.add(static_cast<double>(r.messages));
      if (r.all_correct) ++exact;
    }
    table.add_row({Table::cell("%d", n),
                   Table::cell("%lld", static_cast<long long>(p.T)),
                   Table::cell("%lld", static_cast<long long>(p.corr_sends)),
                   Table::cell("%.1f", lat.mean()),
                   Table::cell("%.0f", work.mean()),
                   Table::cell("%d/%d", exact, trials),
                   // reduce-then-broadcast alternative: 2x a BIG traversal
                   Table::cell("%.0f", 2.0 * big_latency_us(n, logp))});
  }
  table.print();
  std::printf("\n# reading: every node converges to the exact global max "
              "with probability >= 1-eps; latency tracks the broadcast "
              "optimum + one sweep, well under a reduce-then-broadcast\n");
  return 0;
}
