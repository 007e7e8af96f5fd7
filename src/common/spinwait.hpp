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
  static constexpr std::uint32_t kDefaultSpinLimit = 128;
  /// Default cap on one sleep step.
  static constexpr std::uint32_t kMaxSleepNs = 50'000;

  /// @param spin_limit pause-loop iterations before yielding begins
  /// @param max_sleep_ns longest sleep step; a wait on a delivery with a
  ///        known flight time passes about half of it, so no step sleeps
  ///        through a whole flight
  explicit SpinWait(std::uint32_t spin_limit = kDefaultSpinLimit,
                    std::uint32_t max_sleep_ns = kMaxSleepNs) noexcept
      : limit_(spin_limit),
        max_sleep_ns_(max_sleep_ns),
        sleep_ns_(first_sleep_ns()) {}

  void wait() noexcept {
    if (count_ < limit_) {
      ++count_;
      cpu_relax();
    } else if (count_ < limit_ + kYieldLimit) {
      ++count_;
      std::this_thread::yield();
    } else {
      // The partner is descheduled or deliberately pacing (e.g. an injected
      // delivery latency): stop taxing the runqueue. The steps double up
      // to the cap, so the wakeup lag stays small against the latency
      // scales being injected.
      timespec ts{0, static_cast<long>(sleep_ns_)};
      tighten_timer_slack();
      ::nanosleep(&ts, nullptr);
      sleep_ns_ = sleep_ns_ < max_sleep_ns_ / 2 ? sleep_ns_ * 2 : max_sleep_ns_;
    }
  }

  void reset() noexcept {
    count_ = 0;
    sleep_ns_ = first_sleep_ns();
  }

  /// Length of the next sleep-tier step: 2, 4, 8, ... us, never above the
  /// cap.
  std::uint32_t sleep_step_ns() const noexcept { return sleep_ns_; }

 private:
  static constexpr std::uint32_t kYieldLimit = 64;
  static constexpr std::uint32_t kMinSleepNs = 2'000;

  std::uint32_t first_sleep_ns() const noexcept {
    return kMinSleepNs < max_sleep_ns_ ? kMinSleepNs : max_sleep_ns_;
  }

  std::uint32_t count_ = 0;
  std::uint32_t limit_;
  std::uint32_t max_sleep_ns_;
  std::uint32_t sleep_ns_;
};

}  // namespace pimds
