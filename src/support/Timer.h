//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timing and analysis budgets. The paper's evaluation uses a
/// 24-hour timeout and 16 GB memory cap; our benches substitute a
/// configurable wall-clock plus work-step budget so that "timeout" rows in
/// the reproduced tables are cheap and deterministic to produce.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SUPPORT_TIMER_H
#define SWIFT_SUPPORT_TIMER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace swift {

/// A simple wall-clock stopwatch.
class Timer {
public:
  using Clock = std::chrono::steady_clock;

  Timer() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Whole milliseconds in \p Elapsed, counted in integer clock ticks.
  /// Converting through seconds() would round through a double, which
  /// drops ticks near millisecond boundaries and loses integer precision
  /// entirely once the count exceeds 2^53. (Separated from millis() so
  /// the regression test can feed synthetic durations.)
  static uint64_t millisFor(Clock::duration Elapsed) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
            .count());
  }

  uint64_t millis() const { return millisFor(Clock::now() - Start); }

private:
  Clock::time_point Start;
};

/// Formats \p Seconds like the paper's tables ("4m44s", "20.4s", "0.91s").
std::string formatSeconds(double Seconds);

/// A combined step and wall-clock budget. Solvers call step() on every unit
/// of work; once the budget is exhausted every subsequent call returns
/// false and the solver aborts, reporting a timeout. It is a run's one
/// stop signal: limits it cannot see itself (the governor's memory cap,
/// an interrupt) stop the run by calling exhaust().
///
/// Thread-safe: one Budget is shared between the top-down solver and the
/// bottom-up wavefront workers of every triggered solve, so the *total*
/// work of a hybrid run is bounded by one cap. Under contention the step
/// counter can overshoot the cap by at most one step per racing thread.
class Budget {
public:
  /// An effectively unlimited budget.
  Budget() = default;

  Budget(uint64_t MaxSteps, double MaxSeconds)
      : MaxSteps(MaxSteps), MaxSeconds(MaxSeconds) {}

  Budget(const Budget &) = delete;
  Budget &operator=(const Budget &) = delete;

  /// Consumes one unit of work; returns false once the budget is exhausted.
  /// The wall clock is polled only every 4096 steps to keep this cheap.
  bool step() {
    if (Exhausted.load(std::memory_order_relaxed))
      return false;
    uint64_t S = Steps.fetch_add(1, std::memory_order_relaxed) + 1;
    if (S > MaxSteps) {
      Exhausted.store(true, std::memory_order_relaxed);
      return false;
    }
    if ((S & 4095) == 0 && Clock.seconds() > MaxSeconds) {
      Exhausted.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Checks the budget without consuming a step: false once it is
  /// exhausted or its wall clock has run out. Loops inside one unit of
  /// work that can run long (a call composition over thousands of
  /// relations) poll it so they stop near the wall limit, and step
  /// counts stay the same.
  bool poll() {
    if (Exhausted.load(std::memory_order_relaxed))
      return false;
    if (Clock.seconds() > MaxSeconds) {
      Exhausted.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Marks the budget exhausted from the outside. The resource governor
  /// calls this when a limit the Budget itself cannot see — the memory
  /// estimate — is exceeded, so every solver sharing the budget aborts at
  /// its next step() exactly as it would on a step/wall exhaustion.
  void exhaust() { Exhausted.store(true, std::memory_order_relaxed); }

  bool exhausted() const { return Exhausted.load(std::memory_order_relaxed); }
  uint64_t steps() const { return Steps.load(std::memory_order_relaxed); }
  double seconds() const { return Clock.seconds(); }
  uint64_t maxSteps() const { return MaxSteps; }
  double maxSeconds() const { return MaxSeconds; }

private:
  uint64_t MaxSteps = UINT64_MAX;
  double MaxSeconds = 1e18;
  std::atomic<uint64_t> Steps{0};
  std::atomic<bool> Exhausted{false};
  Timer Clock;
};

} // namespace swift

#endif // SWIFT_SUPPORT_TIMER_H
