// Ablation: FCG's resilience parameter f.  The paper always runs f=1
// (double online failure probability ~7e-19); this bench shows what
// higher resilience would cost in latency and work.
//
//   ./ablation_fcg_f [--n=1024] [--threads=0] [--trials=300] [--seed=1]
#include <cstdio>

#include "analysis/fcg_bound.hpp"
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
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-5;

  bench::print_header("Ablation: FCG resilience parameter f");
  std::printf("# N=%d, L=2us, O=1us, %d trials, online failures = f each "
              "run\n", n, trials);

  Table table({"f", "T", "lat[us]", "work", "SOS", "violations"});
  for (const int f : {0, 1, 2, 3}) {
    const FcgTuning t = tune_fcg(n, n, logp, eps, f);
    TrialSpec spec;
    spec.threads = threads;
    spec.algo = Algo::kFcg;
    spec.acfg.T = t.T_opt + 1;
    spec.acfg.fcg_f = f;
    spec.n = n;
    spec.logp = logp;
    spec.seed = derive_seed(seed, static_cast<std::uint64_t>(f));
    spec.trials = trials;
    spec.online_failures = f;  // stress exactly at the tolerance
    spec.online_horizon = spec.acfg.T + 30;
    const TrialAggregate agg = run_trials(spec);
    table.add_row(
        {Table::cell("%d", f),
         Table::cell("%lld", static_cast<long long>(spec.acfg.T)),
         Table::cell("%.1f", logp.us(1) * agg.t_complete.mean()),
         Table::cell("%.0f", agg.work.mean()),
         Table::cell("%lld", static_cast<long long>(agg.sos_trials)),
         Table::cell("%lld",
                     static_cast<long long>(agg.all_or_nothing_violations))});
  }
  table.print();
  std::printf("\n# expectation: zero all-or-nothing violations at every f; "
              "work grows with f (wider sweeps, larger k-arrays)\n");
  return 0;
}
