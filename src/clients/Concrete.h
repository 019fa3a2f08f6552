//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete witnesses, one per registered domain — the ground truth of
/// the differential oracle. Four domains share one semantics and read
/// their observables out of the reference machine (concrete/Interpreter.h):
///  * typestate: the allocation points of the objects that entered the
///    error state,
///  * taint: a method call is a leak when its method is a sink and its
///    receiver was allocated at a source class (the registry's
///    convention, see Registry.h),
///  * null-deref: the dereference of an *explicit* null that halted the
///    run (uninitialized nulls halt silently — the analysis only claims
///    to cover explicit-null flows, see NullDerefProblem.h),
///  * reaching-defs: main's final direct definitions and every store that
///    ran, compared as main-exit facts.
/// The interval domain's concretization differs (counters copy, fields
/// are a global store, method calls on null are no-ops), so it runs on
/// its own by-value counter machine.
///
/// Events are valid for any run prefix (a sound analysis covers every
/// prefix); exit facts are valid only for runs that complete through
/// main's exit (ExitFactsValid).
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_CONCRETE_H
#define SWIFT_CLIENTS_CONCRETE_H

#include "concrete/Interpreter.h"
#include "ir/Program.h"

#include <set>
#include <string>
#include <utility>

namespace swift {
namespace clients {

struct WitnessResult {
  /// Report sites hit by this schedule: (proc, node), keyed exactly like
  /// the abstract domains' report facts.
  std::set<std::pair<ProcId, NodeId>> Events;
  /// Non-report facts holding at main's exit, rendered in the abstract
  /// domain's factText format. Only meaningful when ExitFactsValid.
  std::set<std::string> ExitFacts;
  /// The run returned from main (no halt, budget not exhausted).
  bool ReachedExit = false;
  /// ReachedExit, for the domains whose ground truth includes exit facts
  /// (reaching-defs and interval); exit facts may be compared against
  /// the analysis.
  bool ExitFactsValid = false;
  /// False if the step or depth budget was exhausted mid-run. Events are
  /// still valid (they happened on a real prefix).
  bool Completed = false;
};

/// Executes one schedule of \p Prog under the witness of \p Domain
/// ("typestate", "taint", "nullderef", "reachdefs", or "interval").
/// Throws std::runtime_error for any other domain.
WitnessResult runClientWitness(const std::string &Domain,
                               const Program &Prog, const InterpConfig &Cfg);

} // namespace clients
} // namespace swift

#endif // SWIFT_CLIENTS_CONCRETE_H
