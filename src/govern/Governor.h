//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource governor: staged, observable degradation instead of the
/// paper's hard 16 GB / 24 h cliff. It watches three resources at once —
/// the shared step Budget, the wall clock, and an instrumented memory
/// estimate (path-edge table plus relation-store footprints, charged by
/// the solvers) — and folds them into one pressure fraction, the maximum
/// utilization over the three. The fraction maps to a latched pressure
/// level:
///
///   Green  — normal operation.
///   Yellow — (fraction >= YellowAt) the hybrid degrades: newly triggered
///            bottom-up runs halve theta (smaller summaries, larger
///            Sigma, more top-down fallback — sound by the paper's
///            Theorem 3.1).
///   Red    — (fraction >= RedAt) no bottom-up runs at all, and installed
///            summary caches are shed to free memory.
///
/// Levels only ratchet upward (the latch): degradation actions are
/// monotone, so a transient dip in the wall-clock fraction never re-grows
/// summary caches that were already shed. The shared Budget is the one
/// stop signal: exceeding the hard memory cap, an interrupt and the
/// gov.tick failpoint all exhaust it, which makes every solver — the
/// top-down loop and any bottom-up solve in flight — abort at its next
/// step(). The run then returns a *partial but sound* result instead of
/// nothing (see typestate/Runner.h's governed entry point). Latching Red
/// stops nothing by itself: the thresholds are checked only by
/// poll()/recompute() on the top-down thread, never while a bottom-up
/// solve is running.
///
/// Determinism: with step-only limits (no wall clock, no memory cap) the
/// pressure level observed at each top-down poll point is a pure function
/// of the deterministic step count, so governed runs are reproducible at
/// any thread count. Wall-clock and memory fractions are inherently
/// timing-dependent; they are best-effort degradation signals, not part
/// of the determinism contract.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_GOVERN_GOVERNOR_H
#define SWIFT_GOVERN_GOVERNOR_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace swift {

enum class Pressure : int { Green = 0, Yellow = 1, Red = 2 };

inline const char *pressureName(Pressure P) {
  switch (P) {
  case Pressure::Green:
    return "green";
  case Pressure::Yellow:
    return "yellow";
  case Pressure::Red:
    return "red";
  }
  return "?";
}

inline bool pressureAtLeast(Pressure A, Pressure B) {
  return static_cast<int>(A) >= static_cast<int>(B);
}

/// Resource limits plus the degradation thresholds. Unlimited fields do
/// not contribute to the pressure fraction.
struct GovernorLimits {
  uint64_t MaxSteps = UINT64_MAX;
  double MaxSeconds = 1e18;
  uint64_t MaxMemoryBytes = UINT64_MAX;
  /// Utilization fractions at which Yellow / Red latch. Test hooks as
  /// much as tuning knobs: YellowAt = 0 forces degraded mode from the
  /// first poll.
  double YellowAt = 0.70;
  double RedAt = 0.90;
};

/// One governor per analysis run. Owns the run's Budget (shared by the
/// top-down solver and all bottom-up workers).
///
/// Thread-safety: charge()/release()/level() may be called from any
/// thread; poll() must be called from a single thread (the top-down
/// solver's loop — it is the only writer of the throttle counter and the
/// cached fraction).
class ResourceGovernor {
public:
  explicit ResourceGovernor(const GovernorLimits &Limits)
      : Lim(Limits), Bud(Limits.MaxSteps, Limits.MaxSeconds) {}

  ResourceGovernor(const ResourceGovernor &) = delete;
  ResourceGovernor &operator=(const ResourceGovernor &) = delete;

  Budget &budget() { return Bud; }
  const Budget &budget() const { return Bud; }
  const GovernorLimits &limits() const { return Lim; }

  /// Adds \p Bytes to the memory estimate. Crossing the hard cap
  /// exhausts the shared Budget (every solver aborts at its next step)
  /// and latches Red.
  void charge(uint64_t Bytes) {
    uint64_t Now = Mem.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    uint64_t Pk = PeakMem.load(std::memory_order_relaxed);
    while (Now > Pk && !PeakMem.compare_exchange_weak(
                           Pk, Now, std::memory_order_relaxed)) {
    }
    if (Now > Lim.MaxMemoryBytes) {
      Bud.exhaust();
      latch(Pressure::Red);
    }
  }

  void release(uint64_t Bytes) {
    Mem.fetch_sub(Bytes, std::memory_order_relaxed);
  }

  uint64_t memoryBytes() const {
    return Mem.load(std::memory_order_relaxed);
  }
  uint64_t peakMemoryBytes() const {
    return PeakMem.load(std::memory_order_relaxed);
  }

  /// Recomputes the pressure fraction (throttled: the first call and then
  /// every 256th do real work; steps dominate between polls) and returns
  /// the latched level. Single-threaded caller only.
  Pressure poll() {
    if ((PollCount++ & 255) == 0)
      recompute();
    return level();
  }

  /// Unthrottled recompute. Single-threaded caller only.
  void recompute() {
    // Deterministic fault injection: a fired gov.tick failpoint is a
    // sudden resource exhaustion at this budget tick — the run must
    // degrade to a partial-but-sound result exactly as if a real limit
    // tripped.
    if (SWIFT_FAILPOINT("gov.tick")) {
      Bud.exhaust();
      latch(Pressure::Red);
      LastFraction = 1.0;
      samplePressure();
      return;
    }
    double F = 0.0;
    if (Lim.MaxSteps != UINT64_MAX && Lim.MaxSteps != 0)
      F = std::max(F, static_cast<double>(Bud.steps()) /
                          static_cast<double>(Lim.MaxSteps));
    if (Lim.MaxSeconds < 1e17 && Lim.MaxSeconds > 0)
      F = std::max(F, Bud.seconds() / Lim.MaxSeconds);
    if (Lim.MaxMemoryBytes != UINT64_MAX && Lim.MaxMemoryBytes != 0)
      F = std::max(F, static_cast<double>(memoryBytes()) /
                          static_cast<double>(Lim.MaxMemoryBytes));
    LastFraction = F;
    samplePressure();
    if (F >= Lim.RedAt)
      latch(Pressure::Red);
    else if (F >= Lim.YellowAt)
      latch(Pressure::Yellow);
  }

  /// Async-signal-safe interrupt: exhausts the shared Budget and ratchets
  /// the level to Red — every solver, a bottom-up solve in flight
  /// included, then winds down at its next step() exactly as if a hard
  /// limit tripped, yielding the partial-but-sound result path. Unlike
  /// latch() this emits no trace events (obs::instant allocates and
  /// locks), so a SIGINT/SIGTERM handler may call it directly.
  void interruptFromSignal() {
    Bud.exhaust();
    int Want = static_cast<int>(Pressure::Red);
    int Cur = Level.load(std::memory_order_relaxed);
    while (Cur < Want &&
           !Level.compare_exchange_weak(Cur, Want, std::memory_order_release,
                                        std::memory_order_relaxed)) {
    }
  }

  /// The latched (maximum ever observed) pressure level.
  Pressure level() const {
    return static_cast<Pressure>(Level.load(std::memory_order_acquire));
  }

  /// Last computed utilization fraction (poll()ing thread's view).
  double fraction() const { return LastFraction; }

private:
  /// Emits one point on the governor pressure timeline (percent of the
  /// nearest limit) to the trace and the "gov.pressure_pct" gauge.
  void samplePressure() {
    uint64_t Pct = static_cast<uint64_t>(LastFraction * 100.0);
    if (obs::metricsEnabled())
      PressurePct->set(Pct);
    obs::counterEvent("gov.pressure", "pct", Pct);
  }

  /// Ratchets the level up to at least \p P. Release ordering pairs with
  /// level()'s acquire so a thread seeing Red also sees every write the
  /// governor's thread made before latching.
  void latch(Pressure P) {
    int Want = static_cast<int>(P);
    int Cur = Level.load(std::memory_order_relaxed);
    bool Raised = false;
    while (Cur < Want) {
      if (Level.compare_exchange_weak(Cur, Want, std::memory_order_release,
                                      std::memory_order_relaxed)) {
        Raised = true;
        break;
      }
    }
    // The winning transition (not re-latches at the same level) is a
    // ladder instant in the trace.
    if (Raised)
      obs::instant("gov", "gov.latch",
                   {"level", static_cast<uint64_t>(Want)});
  }

  GovernorLimits Lim;
  Budget Bud;
  std::atomic<uint64_t> Mem{0};
  std::atomic<uint64_t> PeakMem{0};
  std::atomic<int> Level{static_cast<int>(Pressure::Green)};
  uint64_t PollCount = 0;    ///< poll()ing thread only.
  double LastFraction = 0.0; ///< poll()ing thread only.
  /// Interned once; sampled lock-free by samplePressure().
  obs::Gauge *PressurePct =
      obs::MetricsRegistry::instance().gauge("gov.pressure_pct");
};

} // namespace swift

#endif // SWIFT_GOVERN_GOVERNOR_H
