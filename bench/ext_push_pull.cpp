// Extension: push-pull vs push-only gossip under the LogP model.  The
// classic synchronous analysis promises a much faster tail for pull; here
// requests and responses consume real send slots, so this bench measures
// what actually survives of that advantage - and what it would buy a
// corrected variant (a smaller T for the same coverage).
//
//   ./ext_push_pull [--n=1024] [--trials=300] [--seed=1]
#include <cstdio>

#include "analysis/coloring.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "analysis/tuning.hpp"
#include "gossip/ccg.hpp"
#include "gossip/ccg_pushpull.hpp"
#include "gossip/push_pull.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = static_cast<NodeId>(flags.get_int("n", 1024));
  const int trials = static_cast<int>(flags.get_int("trials", 300));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.check_all_read();
  const LogP logp = LogP::unit();

  bench::print_header("Extension: push-pull vs push-only gossip");
  std::printf("# N=%d, L=O=1, %d trials per row\n", n, trials);

  Table table({"T", "mode", "colored (mean)", "full-coverage runs",
               "work (mean)", "forecast c(T+L+O)"});
  for (const Step T : {16, 20, 24, 28, 32}) {
    for (const bool pull : {false, true}) {
      RunningStat colored, work;
      int full = 0;
      for (int t = 0; t < trials; ++t) {
        PushPullNode::Params p;
        p.T = T;
        p.pull = pull;
        RunConfig cfg;
        cfg.n = n;
        cfg.logp = logp;
        cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(T) * 64 +
                                         (pull ? 32 : 0) +
                                         static_cast<std::uint64_t>(t) * 512);
        Engine<PushPullNode> eng(cfg, p);
        const RunMetrics m = eng.run();
        colored.add(m.n_colored);
        work.add(static_cast<double>(m.msgs_total));
        if (m.all_active_colored) ++full;
      }
      const double forecast =
          pull ? pushpull_expected_colored(n, n, T, logp,
                                           T + logp.delivery_delay())
                     .back()
               : expected_colored(n, n, T, logp, T + logp.delivery_delay())
                     .back();
      table.add_row({Table::cell("%lld", static_cast<long long>(T)),
                     pull ? "push-pull" : "push",
                     Table::cell("%.1f", colored.mean()),
                     Table::cell("%d/%d", full, trials),
                     Table::cell("%.0f", work.mean()),
                     Table::cell("%.1f", forecast)});
    }
  }
  table.print();

  // Corrected push-pull vs plain CCG, each at its own tuned T.
  const double eps = 1e-4;
  const Tuning ccg_t = tune_ccg(n, n, logp, eps);
  const PpTuning pp_t = tune_ccg_pushpull(n, n, logp, eps);
  std::printf("\n# corrected variants, each model-tuned at eps=%.0e:\n", eps);
  Table ct({"variant", "T", "lat (mean)", "lat (max)", "work", "all-reached"});
  {
    RunningStat lat, work;
    Samples lmax;
    int full = 0;
    for (int t = 0; t < trials; ++t) {
      CcgNode::Params p;
      p.T = ccg_t.T_opt + 1;
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = logp;
      cfg.seed = derive_seed(seed, 777000 + static_cast<std::uint64_t>(t));
      Engine<CcgNode> eng(cfg, p);
      const RunMetrics m = eng.run();
      lat.add(static_cast<double>(m.t_complete));
      lmax.add(static_cast<double>(m.t_complete));
      work.add(static_cast<double>(m.msgs_total));
      if (m.all_active_colored) ++full;
    }
    ct.add_row({"CCG (push)",
                Table::cell("%lld", static_cast<long long>(ccg_t.T_opt + 1)),
                Table::cell("%.1f", lat.mean()),
                Table::cell("%.0f", lmax.max()),
                Table::cell("%.0f", work.mean()),
                Table::cell("%d/%d", full, trials)});
  }
  {
    RunningStat lat, work;
    Samples lmax;
    int full = 0;
    for (int t = 0; t < trials; ++t) {
      CcgPushPullNode::Params p;
      p.T = pp_t.T_opt + 1;
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = logp;
      cfg.seed = derive_seed(seed, 888000 + static_cast<std::uint64_t>(t));
      Engine<CcgPushPullNode> eng(cfg, p);
      const RunMetrics m = eng.run();
      lat.add(static_cast<double>(m.t_complete));
      lmax.add(static_cast<double>(m.t_complete));
      work.add(static_cast<double>(m.msgs_total));
      if (m.all_active_colored) ++full;
    }
    ct.add_row({"CCG (push-pull)",
                Table::cell("%lld", static_cast<long long>(pp_t.T_opt + 1)),
                Table::cell("%.1f", lat.mean()),
                Table::cell("%.0f", lmax.max()),
                Table::cell("%.0f", work.mean()),
                Table::cell("%d/%d", full, trials)});
  }
  ct.print();

  std::printf("\n# reading: pull attacks the tail (full-coverage runs rise "
              "much earlier in T), so the corrected variant runs a smaller "
              "tuned T and completes earlier - paid for in request "
              "traffic\n");
  return 0;
}
