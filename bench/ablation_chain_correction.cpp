// Ablation: plain OCG sweep vs the chained correction the paper sketches
// for O > L (Section III-B discussion).  Chains relay hop-by-hop through
// c-nodes: minimal work, but each hop pays a serial L+2O, so the latency
// winner flips with the L/O ratio.
//
//   ./ablation_chain_correction [--n=1024] [--threads=0] [--trials=300] [--seed=1]
#include <cstdio>

#include "analysis/tuning.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = static_cast<NodeId>(flags.get_int("n", 1024));
  const int trials = static_cast<int>(flags.get_int("trials", 300));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int threads = bench::threads_flag(flags);
  flags.check_all_read();
  const double eps = 1e-4;

  bench::print_header("Ablation: OCG sweep vs chained correction");
  std::printf("# N=%d, %d trials; latency = completion mean [us]\n", n, trials);

  Table table({"L/O", "algo", "lat[us]", "corr work", "total work",
               "all-reached"});
  for (const Step l_over_o : {0, 1, 2, 4}) {
    const LogP logp{.l_over_o = l_over_o, .o_us = 1.0};
    const Tuning t = tune_ocg(n, n, logp, eps);
    const int k = k_bar_for(n, n, t.T_opt + 1, logp, eps);
    for (const Algo a : {Algo::kOcg, Algo::kOcgChain}) {
      TrialSpec spec;
      spec.threads = threads;
      spec.algo = a;
      spec.acfg.T = t.T_opt + 1;
      spec.acfg.ocg_corr_sends = a == Algo::kOcg ? k + 1 : k;
      spec.n = n;
      spec.logp = logp;
      spec.seed = derive_seed(seed, static_cast<std::uint64_t>(l_over_o) * 4 +
                                        static_cast<std::uint64_t>(a));
      spec.trials = trials;
      const TrialAggregate agg = run_trials(spec);
      table.add_row(
          {Table::cell("%lld", static_cast<long long>(l_over_o)),
           algo_name(a),
           Table::cell("%.1f",
                       logp.us(1) * (agg.t_complete.empty()
                                         ? 0.0
                                         : agg.t_complete.mean())),
           Table::cell("%.0f", agg.work_correction.mean()),
           Table::cell("%.0f", agg.work.mean()),
           Table::cell("%lld/%lld",
                       static_cast<long long>(agg.all_colored_trials),
                       static_cast<long long>(agg.trials))});
    }
  }
  table.print();
  std::printf("\n# expectation: OCG-CHAIN always wins correction work by a "
              "wide margin; its latency premium grows with L/O (each hop "
              "pays the wire), matching the paper's O<=L guidance\n");
  return 0;
}
