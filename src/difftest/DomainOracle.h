//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-domain differential oracle: the client-domain counterpart of
/// difftest/Oracle.h. For one registered analysis domain (taint,
/// nullderef, reachdefs, interval) it runs the domain's concrete witness
/// machine as ground truth and the solver-mode matrix (pure TD reference,
/// SWIFT at several (k, theta, threads), pure BU at several thread
/// counts), then checks:
///
///  * Soundness — every witness report site is reported by the TD
///    reference, and (when a schedule completes through main's exit) the
///    witness exit facts are a subset of the reference's. Coincidence
///    transfers this to every other complete configuration.
///  * TD coincidence (Theorem 3.1) — SWIFT's report sites and main-exit
///    facts equal the reference's at every (k, theta, threads).
///  * BU agreement — the unpruned bottom-up run, instantiated on Lambda,
///    matches the reference's report sites and main-exit facts.
///  * Thread determinism — runs differing only in worker count agree in
///    report sites, exit facts, and summary/relation counts.
///
/// Reuses difftest's Violation/CheckKind vocabulary and OracleResult, and
/// runs through difftest's one campaign loop, reducer and replay
/// (domainOracle), so reproducers and tooling handle both oracles
/// uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_DOMAINORACLE_H
#define SWIFT_DIFFTEST_DOMAINORACLE_H

#include "clients/Registry.h"
#include "difftest/Difftest.h"
#include "difftest/Oracle.h"
#include "ir/Program.h"

#include <string>

namespace swift {
namespace difftest {

struct DomainOracleOptions {
  /// Budget per analysis run; timed-out runs are skipped, not failed.
  RunLimits Limits{2'000'000, 10.0};
  /// Concrete witness schedules unioned into the ground truth.
  unsigned Schedules = 8;
  uint64_t InterpSeed = 1;
  uint64_t InterpMaxSteps = 20'000;
};

/// Runs the matrix and all checks for \p Domain on \p Prog (ConcreteErrors
/// stays empty: the witness reports (proc, node) sites, not allocation
/// sites). Throws std::runtime_error for an unregistered domain.
OracleResult runDomainOracle(const std::string &Domain, const Program &Prog,
                             const DomainOracleOptions &Opts);

/// runDomainOracle for \p Domain with \p Opts, as a campaign or replay
/// oracle; the driver's InterpSeed replaces Opts.InterpSeed. Violation
/// config strings (and thus reproducer headers) begin with the domain
/// name ("taint/swift/k1/theta2/th4"), so a reproducer records which
/// domain to replay it under.
ProgramOracle domainOracle(const std::string &Domain,
                           const DomainOracleOptions &Opts);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_DOMAINORACLE_H
