//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The domain registry: a single string-keyed entry point running any
/// registered analysis domain — the three IFDS-shaped clients (taint,
/// null-deref, reaching-defs, all instances of `IfdsProblem` lowered
/// through the generic adapter), the relational interval domain, and the
/// built-in typestate analysis (a thin adapter over typestate/Runner.h)
/// — in any of the three solver modes (pure top-down, SWIFT hybrid, pure
/// bottom-up) on an unmodified `TabulationSolver` / `RelationalSolver`.
///
/// Results are normalized across domains: report sites as (proc, node)
/// pairs keyed by the *originating* command (fact-embedded sites plus the
/// observation manifest, so they coincide across modes per Theorem 3.1),
/// the points where report facts were seen, and the facts at main's exit
/// as strings in the domain's factText format. The client domains leave
/// report facts out of the exit set on purpose: under SWIFT they surface
/// through the manifest rather than the caller's fact table, so only
/// their sites — not their presence at main's exit — are mode-invariant.
/// Typestate's report site is the allocation of the object that may
/// reach the error state (Program::site), and its exit facts are all of
/// main's exit states, error states included.
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
#include "typestate/Runner.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace swift {
namespace clients {

enum class DomainMode { Td, Swift, Bu };

/// A program point: (procedure, node).
using Point = std::pair<ProcId, NodeId>;

/// A domain run's result. A client-domain run that ran out of budget
/// keeps the counts it reached and, in the TD and SWIFT modes, the
/// findings harvested so far; a typestate run keeps only the timeout.
struct DomainRunResult : RunCounts {
  /// Report sites: (proc, node) of the originating command, mode- and
  /// thread-invariant.
  std::set<Point> Reports;
  /// (report site, point where a report fact was seen). SWIFT sees a
  /// report inside a summary-served callee at the serving call, and pure
  /// BU sees every report at main's exit.
  std::set<std::pair<Point, Point>> ReportPoints;
  /// Facts at main's exit, in the domain's factText format.
  std::set<std::string> ExitFacts;
};

/// The registered client domain names, in presentation order:
/// taint, nullderef, reachdefs, interval. The registry also runs
/// "typestate", which is not a client domain.
const std::vector<std::string> &clientDomainNames();
bool isClientDomain(const std::string &Domain);

/// The taint client's source/sink convention (also used by its witness).
std::set<Symbol> taintSourceClasses(const Program &Prog);
std::set<Symbol> taintSinkMethods(const Program &Prog);

/// Runs \p Domain ("typestate" or a client domain) on \p Prog. \p K and
/// \p Theta configure the SWIFT trigger and pruning (ignored for Td and
/// Bu); \p Threads is pure BU's wavefront worker count (Td and Swift
/// modes run on one thread). Typestate tracks the program's first spec.
/// Throws std::runtime_error for an unregistered domain, and for
/// typestate on a program without a spec.
DomainRunResult runClientDomain(const std::string &Domain,
                                const Program &Prog, DomainMode Mode,
                                uint64_t K, uint64_t Theta,
                                unsigned Threads, RunLimits Limits = {});

/// The typestate adapter's normalization of \p R, a run on \p Prog:
/// error sites become their allocations' points, error points report
/// points, and main-exit states their rendered text.
DomainRunResult typestateResult(const Program &Prog, TsRunResult R);

} // namespace clients
} // namespace swift

#endif // SWIFT_CLIENTS_REGISTRY_H
