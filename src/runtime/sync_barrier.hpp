// Sense-reversing (epoch) barrier for the sharded engine's window loop.
//
// std::barrier burns two atomic phases per arrival (it supports arrive-
// and-drop and token-based waits we never use); on the engine's hot path
// every window crosses a barrier, so the cost per crossing matters.  This
// barrier is the classic counter+epoch scheme: arrivals increment a
// counter, the last arrival runs the completion function, resets the
// counter and bumps the epoch; everyone else spins briefly on the epoch
// word and then parks in std::atomic::wait (futex).
//
// Memory-ordering contract (what the engine relies on):
//   * every write a thread performs before arrive_and_wait() is visible
//     to the completion function (acq_rel RMW on the arrival counter);
//   * every write the completion function performs is visible to all
//     threads after they return (release store / acquire load of epoch).
//
// The spin budget should be ~0 when the process is oversubscribed
// (more runnable threads than cores): spinning there just steals the
// timeslice the last arriver needs.  Callers pick the budget; see
// ShardedEngine::run for the hardware_concurrency-based choice.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace cg {

class SenseBarrier {
 public:
  /// `parties` threads per crossing; `completion` (optional) runs exactly
  /// once per crossing, on the last arriving thread, while every other
  /// party is blocked inside arrive_and_wait().
  explicit SenseBarrier(int parties, std::function<void()> completion = {},
                        int spin_rounds = 0)
      : parties_(parties),
        spin_rounds_(spin_rounds),
        completion_(std::move(completion)) {}

  SenseBarrier(const SenseBarrier&) = delete;
  SenseBarrier& operator=(const SenseBarrier&) = delete;

  void arrive_and_wait() {
    const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      if (completion_) completion_();
      epoch_.store(epoch + 1, std::memory_order_release);
      epoch_.notify_all();
      return;
    }
    for (int i = 0; i < spin_rounds_; ++i) {
      if (epoch_.load(std::memory_order_acquire) != epoch) return;
      cpu_pause();
    }
    while (epoch_.load(std::memory_order_acquire) == epoch)
      epoch_.wait(epoch, std::memory_order_acquire);
  }

 private:
  static void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  const int parties_;
  const int spin_rounds_;
  std::function<void()> completion_;
  // Separate cache lines: arrivals hammer arrived_; waiters poll epoch_.
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
};

}  // namespace cg
