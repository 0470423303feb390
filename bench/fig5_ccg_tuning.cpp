// Figure 5: CCG predicted vs simulated total time (reach all nodes AND
// complete the algorithm) as a function of the gossip time T.
// N = n = 1024, L = O = 1.
//
//   ./fig5_ccg_tuning [--n=1024] [--threads=0] [--trials=1500] [--seed=1]
//                     [--tmin=18] [--tmax=36] [--eps=...]
#include <cstdio>
#include <vector>

#include "analysis/tuning.hpp"
#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = static_cast<NodeId>(flags.get_int("n", 1024));
  const int trials = static_cast<int>(flags.get_int("trials", 1500));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const Step tmin = flags.get_int("tmin", 18);
  const Step tmax = flags.get_int("tmax", 36);
  const double eps =
      flags.get_double("eps", eps_for_runs(0.5, static_cast<double>(trials)));
  const int threads = bench::threads_flag(flags);
  const std::string csv = flags.get_string("csv", "");
  flags.check_all_read();
  const LogP logp = LogP::unit();

  bench::print_header("Figure 5: CCG completion time vs gossip time T");
  std::printf("# N=n=%d, L=O=1, %d trials, eps=%.3g\n", n, trials, eps);
  const Tuning opt = tune_ccg(n, n, logp, eps, tmin, tmax);
  std::printf("# model optimum: T=%lld (predicted %lld steps)\n",
              static_cast<long long>(opt.T_opt),
              static_cast<long long>(opt.predicted_latency));

  Table table({"T", "predicted (Eq.4)", "simulated max", "simulated p99",
               "simulated mean", "all-reached"});
  std::vector<std::pair<double, double>> pred_pts, sim_pts;
  for (Step T = tmin; T <= tmax; ++T) {
    TrialSpec spec;
    spec.threads = threads;
    spec.algo = Algo::kCcg;
    spec.acfg.T = T;
    spec.n = n;
    spec.logp = logp;
    spec.seed = derive_seed(seed, static_cast<std::uint64_t>(T));
    spec.trials = trials;
    const TrialAggregate agg = run_trials(spec);
    const Step pred = ccg_predicted_latency(n, n, T, logp, eps);
    pred_pts.emplace_back(static_cast<double>(T), static_cast<double>(pred));
    sim_pts.emplace_back(static_cast<double>(T), agg.t_complete.max());
    table.add_row(
        {Table::cell("%lld", static_cast<long long>(T)),
         Table::cell("%lld", static_cast<long long>(pred)),
         Table::cell("%.0f", agg.t_complete.max()),
         Table::cell("%.0f", agg.t_complete.quantile(0.99)),
         Table::cell("%.1f", agg.t_complete.mean()),
         Table::cell("%lld/%lld", static_cast<long long>(agg.all_colored_trials),
                     static_cast<long long>(agg.trials))});
  }
  table.print();
  bench::maybe_write_csv(csv, table);

  std::printf("\n");
  AsciiPlot plot(static_cast<int>(2 * (tmax - tmin) + 2), 14);
  plot.add_series("predicted (Eq. 4)", '-', pred_pts);
  plot.add_series("simulated max", '*', sim_pts);
  plot.print();
  return 0;
}
