// Oversubscription-friendly spin helper.
//
// Every unbounded wait loop in the library uses SpinWait instead of a bare
// cpu_relax() loop: after a short burst of pause instructions it starts
// yielding the OS time slice, and after sustained yielding it escalates to
// short, exponentially growing sleeps. On a machine with fewer cores than
// runnable threads, bare spinning starves the thread being waited on, and
// even yield loops tax the scheduler once many waiters churn the runqueue —
// sleeping waiters cost nothing until their wakeup. The sleeps run at the
// tight timer slack `tighten_timer_slack()` sets, so each one lasts about
// what it asks for instead of the kernel's default 50 us more.
#pragma once

#include <cstdint>
#include <thread>

#include "common/timing.hpp"

namespace pimds {

class SpinWait {
 public:
  /// @param spin_limit pause-loop iterations before yielding begins
  explicit SpinWait(std::uint32_t spin_limit = 128) noexcept
      : limit_(spin_limit) {}

  void wait() noexcept {
    if (count_ < limit_) {
      ++count_;
      cpu_relax();
    } else if (count_ < limit_ + kYieldLimit) {
      ++count_;
      std::this_thread::yield();
    } else {
      // The partner is descheduled or deliberately pacing (e.g. an injected
      // delivery latency): stop taxing the runqueue. Bounded so the wakeup
      // lag stays small against the latency scales being injected.
      timespec ts{0, static_cast<long>(sleep_ns_)};
      tighten_timer_slack();
      ::nanosleep(&ts, nullptr);
      if (sleep_ns_ < kMaxSleepNs) sleep_ns_ *= 2;
    }
  }

  void reset() noexcept {
    count_ = 0;
    sleep_ns_ = kMinSleepNs;
  }

 private:
  static constexpr std::uint32_t kYieldLimit = 64;
  static constexpr std::uint32_t kMinSleepNs = 2'000;
  static constexpr std::uint32_t kMaxSleepNs = 50'000;

  std::uint32_t count_ = 0;
  std::uint32_t limit_;
  std::uint32_t sleep_ns_ = kMinSleepNs;
};

}  // namespace pimds
