// Wall-clock helpers and calibrated busy-wait used for latency injection.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace pimds {

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Polite spin-wait hint (PAUSE on x86, YIELD on ARM).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

/// Busy-wait for approximately `ns` nanoseconds.
///
/// The emulation injects memory/message latencies this way (DESIGN.md §5);
/// a clock read costs ~20 ns, so injected latencies should be >= ~100 ns for
/// the ratio between injected classes to dominate the overhead.
inline void spin_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const std::uint64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) cpu_relax();
}

/// Make the calling thread's timed sleeps wake when they asked to: set its
/// timer slack to 1 ns, once per thread.
///
/// Linux lets every timer of a thread fire up to its "timer slack" late so
/// wakeups can be coalesced; the default is 50 us, as long as the Lmessage
/// flight a waiter sleeps through. Every sleeping wait in the library calls
/// this first (`wait_until_ns`, `SpinWait`'s sleep tier), so a waiter wakes
/// at its deadline instead of up to 50 us past it. The setting is per
/// thread and sticks: a caller thread that sleeps inside the library keeps
/// the tighter slack afterwards (and threads it spawns inherit it). Threads
/// that never enter a library sleep keep whatever slack they inherited.
inline void tighten_timer_slack() noexcept {
#if defined(__linux__)
  thread_local bool tightened = false;
  if (!tightened) {
    tightened = true;
    // 0 would mean "reset to the default"; 1 ns is the tightest value.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }
#endif
}

/// Wait until the monotonic clock reaches `deadline_ns`, sleeping through the
/// bulk of long waits and spinning only the tail.
///
/// Burning a core for the whole interval is fine for the short calibrated
/// delays of `spin_for_ns`, but a *known-deadline* wait tens of microseconds
/// out (e.g. an in-flight response's delivery time) should yield the CPU:
/// on oversubscribed hosts the spin steals cycles from exactly the threads
/// whose progress the waiter needs. Past the threshold we sleep to
/// `deadline - slack` and spin the remainder for precision.
///
/// Sizing, from micro_primitives on a 4-vCPU VM: at the tight timer slack a
/// sleep wakes ~5 us late on average and 7-10 us late at p99
/// (BM_SpinWaitSleepStep). A 20 us spin tail is about twice that p99, which
/// still covers the rarer hypervisor-delayed wakes (BM_WaitUntilOvershoot at
/// 100 us returns within 0.2-9 us of its deadline at p99). The 50 us
/// threshold keeps a sleep at least 30 us long, several wake latencies, and
/// keeps the 30 us reply flights of an Lpim = 10 us run spinning.
inline void wait_until_ns(std::uint64_t deadline_ns) noexcept {
  constexpr std::uint64_t kSleepThresholdNs = 50'000;
  constexpr std::uint64_t kSleepSlackNs = 20'000;
  for (std::uint64_t now = now_ns(); now + kSleepThresholdNs < deadline_ns;
       now = now_ns()) {
    const std::uint64_t ns = deadline_ns - now - kSleepSlackNs;
    timespec ts{static_cast<time_t>(ns / 1'000'000'000u),
                static_cast<long>(ns % 1'000'000'000u)};
    tighten_timer_slack();
    ::nanosleep(&ts, nullptr);
  }
  while (now_ns() < deadline_ns) cpu_relax();
}

/// RAII stopwatch reporting elapsed nanoseconds.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(now_ns()) {}
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  double elapsed_s() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }
  void reset() noexcept { start_ = now_ns(); }

 private:
  std::uint64_t start_;
};

}  // namespace pimds
