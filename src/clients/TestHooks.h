//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-injection switches for the client domains, in the style of
/// `typestate::test::InjectTsCallWeakUpdateBug`: each flag disables one
/// load-bearing gen/guard in a client's abstract transfer, turning the
/// analysis unsound on programs that exercise it. The domain difftest
/// oracle must then report a Soundness violation (the concrete witness is
/// untouched), which is how the per-client oracle campaigns and the
/// checked-in corpus reproducers prove the oracle has teeth.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_TESTHOOKS_H
#define SWIFT_CLIENTS_TESTHOOKS_H

#include <atomic>
#include <string>

namespace swift {
namespace clients {
namespace test {

/// Taint: drop the Field(f) gen at `Store` — taint laundered through the
/// heap escapes tracking.
extern std::atomic<bool> InjectTaintStoreBug;

/// Null-deref: drop the NullField(f) gen at `Store` — an explicit null
/// stored to a field and loaded back dereferences without a report.
extern std::atomic<bool> InjectNullStoreBug;

/// Reaching-defs: drop the DefF gen at `Store` — the store site vanishes
/// from the reaching set the concrete witness observes.
extern std::atomic<bool> InjectReachDefsStoreBug;

/// Interval: weaken the underflow guard from `may be <= 0` to
/// `may be < 0` — a close() on an exactly-zero counter goes unreported.
extern std::atomic<bool> InjectIntervalGuardBug;

/// Enables the flag for \p Domain ("typestate" — InjectTsCallWeakUpdateBug
/// — "taint", "nullderef", "reachdefs", "interval"); returns false for
/// unknown names.
bool injectDomainBug(const std::string &Domain, bool On);

} // namespace test
} // namespace clients
} // namespace swift

#endif // SWIFT_CLIENTS_TESTHOOKS_H
