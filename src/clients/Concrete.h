//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete witness machines, one per registered domain — the ground
/// truth of the differential oracle. Typestate's is the concrete
/// interpreter (concrete/Interpreter.h); its events are the allocation
/// points of the objects that entered the error state. One reference
/// machine serves the three IFDS-shaped clients (taint, null-deref,
/// reaching-defs); a separate by-value counter machine serves the
/// interval domain, whose concretization differs (counters copy, fields
/// are a global store, method calls on null are no-ops).
///
/// Reference-machine semantics mirror concrete/Interpreter.cpp exactly:
/// uninitialized variables and missing returns are null, and any
/// dereference of null (load, store base, or method receiver) terminates
/// the run. On top of that it tracks the three domains' observables:
///  * taint: objects allocated at source classes are tainted; a sink
///    method invoked on a tainted receiver is a leak event,
///  * null-deref: null values carry an "explicitly assigned" provenance
///    bit; a halt caused by dereferencing an *explicit* null is a deref
///    event (uninitialized nulls halt silently — the analysis only claims
///    to cover explicit-null flows, see NullDerefProblem.h),
///  * reaching-defs: the latest direct-def site per frame variable and
///    every executed store site; compared as main-exit facts.
///
/// Events are valid for any run prefix (a sound analysis covers every
/// prefix); exit facts are valid only for runs that complete through
/// main's exit (ExitFactsValid).
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_CONCRETE_H
#define SWIFT_CLIENTS_CONCRETE_H

#include "ir/Program.h"

#include <cstdint>
#include <set>
#include <string>
#include <utility>

namespace swift {
namespace clients {

struct WitnessConfig {
  uint64_t Seed = 1;
  uint64_t MaxSteps = 20000;
  unsigned MaxDepth = 64;
  /// Per-mille probability of taking another loop iteration at each
  /// while(*) head (mirrors InterpConfig).
  unsigned LoopContinuePerMille = 400;
};

struct WitnessResult {
  /// Report sites hit by this schedule: (proc, node), keyed exactly like
  /// the abstract domains' report facts.
  std::set<std::pair<ProcId, NodeId>> Events;
  /// Non-report facts holding at main's exit, rendered in the abstract
  /// domain's factText format. Only meaningful when ExitFactsValid.
  std::set<std::string> ExitFacts;
  /// The run reached main's exit normally (no halt, budget not
  /// exhausted); exit facts may be compared against the analysis.
  bool ExitFactsValid = false;
  /// False if the step or depth budget was exhausted mid-run. Events are
  /// still valid (they happened on a real prefix).
  bool Completed = false;
  uint64_t Steps = 0;
};

/// Executes one schedule of \p Prog under the witness machine of
/// \p Domain ("typestate", "taint", "nullderef", "reachdefs", or
/// "interval").
/// Taint uses the registry's source/sink convention (see Registry.h).
WitnessResult runClientWitness(const std::string &Domain,
                               const Program &Prog,
                               const WitnessConfig &Cfg);

} // namespace clients
} // namespace swift

#endif // SWIFT_CLIENTS_CONCRETE_H
