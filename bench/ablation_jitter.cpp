// Ablation: robustness to network jitter.  The paper's model assumes an
// exact latency L; real networks wobble.  We add uniform extra delay of
// 0..J steps per message and watch each algorithm's consistency and
// latency.  Corrected gossip's stop rules are order-insensitive (min /
// set-merge), so correctness should hold; only the schedules stretch.
//
//   ./ablation_jitter [--n=1024] [--threads=0] [--trials=300] [--seed=1]
#include <cstdio>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = static_cast<NodeId>(flags.get_int("n", 1024));
  const int trials = static_cast<int>(flags.get_int("trials", 300));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int threads = bench::threads_flag(flags);
  flags.check_all_read();
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-4;

  bench::print_header("Ablation: uniform per-message jitter of 0..J steps");
  std::printf("# N=%d, L=2us, O=1us, %d trials; parameters tuned for J=0\n",
              n, trials);

  Table table({"J", "algo", "lat[us]", "all-reached", "all-or-nothing"});
  for (const Step jitter : {0, 1, 2, 4}) {
    for (const Algo a : {Algo::kOcg, Algo::kCcg, Algo::kFcg}) {
      const TunedAlgo tuned = tune_for(a, n, n, logp, eps, 1);
      TrialSpec spec;
      spec.threads = threads;
      spec.algo = a;
      spec.acfg = tuned.acfg;
      spec.n = n;
      spec.logp = logp;
      spec.jitter_max = jitter;
      spec.seed = derive_seed(seed, static_cast<std::uint64_t>(jitter) * 8 +
                                        static_cast<std::uint64_t>(a));
      spec.trials = trials;
      const TrialAggregate agg = run_trials(spec);
      table.add_row(
          {Table::cell("%lld", static_cast<long long>(jitter)), algo_name(a),
           Table::cell("%.1f", logp.us(1) * reported_latency_steps(a, agg)),
           Table::cell("%lld/%lld",
                       static_cast<long long>(agg.all_colored_trials),
                       static_cast<long long>(agg.trials)),
           a == Algo::kFcg
               ? Table::cell("%lld/%lld",
                             static_cast<long long>(
                                 agg.trials - agg.all_or_nothing_violations),
                             static_cast<long long>(agg.trials))
               : std::string("n/a")});
    }
  }
  table.print();
  std::printf("\n# expectation: CCG/FCG stay consistent at every J (their "
              "stop rules are order-insensitive); OCG's fixed schedule can "
              "start missing nodes once jitter eats its +O margins\n");
  return 0;
}
