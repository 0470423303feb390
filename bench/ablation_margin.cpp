// Ablation: the paper's "+O" safety margins (Section III-B Discussion).
// OCG is tuned to T_opt and C = K_bar; this bench sweeps extra margin on
// both and reports the miss rate, demonstrating why the paper recommends
// adding one O to each.
//
//   ./ablation_margin [--n=1024] [--threads=0] [--trials=3000] [--seed=1] [--eps=...]
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
  const int trials = static_cast<int>(flags.get_int("trials", 3000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const LogP logp = LogP::unit();
  // A deliberately loose default budget so the zero-margin row's misses
  // are visible at bench-scale trial counts.
  const double eps = flags.get_double("eps", 1e-3);
  const int threads = bench::threads_flag(flags);
  flags.check_all_read();

  const Tuning t = tune_ocg(n, n, logp, eps);
  bench::print_header("Ablation: OCG tuning margins");
  std::printf("# N=%d, L=O=1, eps=%.3g, T_opt=%lld, K_bar=%d, %d trials\n",
              n, eps, static_cast<long long>(t.T_opt), t.k_bar, trials);

  Table table({"T margin", "C margin", "T", "corr sends", "miss rate",
               "mean lat (steps)", "mean work"});
  for (const int tm : {0, 1, 2}) {
    for (const int cm : {0, 1, 2}) {
      TrialSpec spec;
      spec.threads = threads;
      spec.algo = Algo::kOcg;
      spec.acfg.T = t.T_opt + tm;
      spec.acfg.ocg_corr_sends =
          k_bar_for(n, n, spec.acfg.T, logp, eps) + cm;
      if (spec.acfg.ocg_corr_sends < 1) spec.acfg.ocg_corr_sends = 1;
      spec.n = n;
      spec.logp = logp;
      spec.seed = derive_seed(seed, static_cast<std::uint64_t>(tm * 8 + cm));
      spec.trials = trials;
      const TrialAggregate agg = run_trials(spec);
      const double miss_rate =
          1.0 - agg.all_colored_rate();
      table.add_row({Table::cell("%d", tm), Table::cell("%d", cm),
                     Table::cell("%lld", static_cast<long long>(spec.acfg.T)),
                     Table::cell("%lld",
                                 static_cast<long long>(spec.acfg.ocg_corr_sends)),
                     Table::cell("%.4f", miss_rate),
                     Table::cell("%.1f", agg.t_complete.mean()),
                     Table::cell("%.0f", agg.work.mean())});
    }
  }
  table.print();
  std::printf("\n# expectation: zero margin misses a small share of runs; "
              "one extra O on T and C drives the miss rate toward eps at "
              "negligible latency/work cost\n");
  return 0;
}
