// Quickstart: tune and run one reliable broadcast at each consistency
// level on a 1024-node system and print what happened.
//
//   ./quickstart [--n=1024] [--threads=0] [--seed=1]
//
// reliable_broadcast() runs on the multi-threaded runtime, the window-
// sharded engine; --threads is its shard count (0 = one per hardware
// thread) and does not change the output.
#include <cstdio>

#include "common/flags.hpp"
#include "runtime/broadcast.hpp"

int main(int argc, char** argv) {
  const cg::Flags flags(argc, argv);
  const auto n = static_cast<cg::NodeId>(flags.get_int_at_least("n", 1024, 1));
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.check_all_read();

  std::printf("corrected-gossip quickstart: N=%d nodes, LogP L=2us O=1us\n\n",
              n);

  for (const auto consistency :
       {cg::Consistency::kWeak, cg::Consistency::kChecked,
        cg::Consistency::kFailProof}) {
    cg::BroadcastOptions opts;
    opts.n = n;
    opts.consistency = consistency;
    opts.threads = threads;
    const cg::BroadcastReport rep = cg::reliable_broadcast(opts, seed);
    std::printf("  %s\n", rep.summary().c_str());
  }

  std::printf(
      "\nWith one node crashing mid-broadcast (FCG tolerates it):\n");
  cg::BroadcastOptions opts;
  opts.n = n;
  opts.consistency = cg::Consistency::kFailProof;
  opts.threads = threads;
  opts.failures.online.push_back({static_cast<cg::NodeId>(n / 3), 20});
  const cg::BroadcastReport rep = cg::reliable_broadcast(opts, seed);
  std::printf("  %s\n", rep.summary().c_str());
  std::printf("  all-or-nothing delivery held: %s\n",
              rep.delivered_all_or_nothing ? "yes" : "NO (bug!)");
  return 0;
}
