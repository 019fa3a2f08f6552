//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-domain registry: a single string-keyed entry point running
/// any registered analysis domain — the three IFDS-shaped clients (taint,
/// null-deref, reaching-defs, all instances of `IfdsProblem` lowered
/// through the generic adapter) and the relational interval domain — in
/// any of the three solver modes (pure top-down, SWIFT hybrid, pure
/// bottom-up) on an unmodified `TabulationSolver` / `RelationalSolver`.
///
/// Results are normalized across domains: report sites as (proc, node)
/// pairs keyed by the *originating* command (fact-embedded sites plus the
/// observation manifest, so they coincide across modes per Theorem 3.1),
/// and the non-report facts at main's exit as strings in the domain's
/// factText format. Report facts are excluded from the exit set on
/// purpose: under SWIFT they surface through the manifest rather than the
/// caller's fact table, so only their sites — not their presence at
/// main's exit — are mode-invariant.
///
/// Taint convention: source classes are those named "File" or "Source";
/// sink methods are those named "open" or "sink". This makes the fuzzer's
/// single File protocol a rich taint workload; tests/corpus/taint_leaks.txt
/// pins the client's leak sites on it.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_REGISTRY_H
#define SWIFT_CLIENTS_REGISTRY_H

#include "framework/RunDriver.h"
#include "ir/Program.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace swift {
namespace clients {

enum class DomainMode { Td, Swift, Bu };

/// A client-domain run's result. A run that ran out of budget keeps the
/// counts it reached and, in the TD and SWIFT modes, the findings
/// harvested so far.
struct DomainRunResult : RunCounts {
  /// Report sites: (proc, node) of the originating command, mode- and
  /// thread-invariant.
  std::set<std::pair<ProcId, NodeId>> Reports;
  /// Non-report facts at main's exit, in the domain's factText format.
  std::set<std::string> ExitFacts;
};

/// The registered domain names, in presentation order:
/// taint, nullderef, reachdefs, interval.
const std::vector<std::string> &clientDomainNames();
bool isClientDomain(const std::string &Domain);

/// The taint client's source/sink convention (also used by its witness).
std::set<Symbol> taintSourceClasses(const Program &Prog);
std::set<Symbol> taintSinkMethods(const Program &Prog);

/// Runs \p Domain on \p Prog. \p K and \p Theta configure the SWIFT
/// trigger and pruning (ignored for Td and Bu); \p Threads is the solver
/// worker count (BU wavefront workers in Swift/Bu modes). Throws
/// std::runtime_error for an unregistered domain.
DomainRunResult runClientDomain(const std::string &Domain,
                                const Program &Prog, DomainMode Mode,
                                uint64_t K, uint64_t Theta,
                                unsigned Threads, RunLimits Limits = {});

} // namespace clients
} // namespace swift

#endif // SWIFT_CLIENTS_REGISTRY_H
