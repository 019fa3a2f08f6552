//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete reference machine for the analyzed language: objects with
/// a per-object typestate, a heap of field values, and randomly resolved
/// non-deterministic choices. It is the ground truth of four domains —
/// typestate, taint, null-deref and reaching-defs, whose witnesses
/// (clients/Concrete.h) each read their observables out of one
/// InterpResult — and of the soundness property tests and the example
/// programs.
///
/// Concrete semantics choices (mirrored by the analyses):
///  * uninitialized variables and missing returns are null,
///  * any null dereference (load, store, or method call on null) terminates
///    the run, like an uncaught NullPointerException — this pairing is what
///    makes the analysis's must-alias gens across stores sound,
///  * a null carries an "explicitly assigned" provenance bit (x = null,
///    and values copied or loaded from it); uninitialized nulls do not,
///  * calling a method a class does not declare is a no-op,
///  * the error typestate is absorbing; entering it is recorded but
///    execution continues.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CONCRETE_INTERPRETER_H
#define SWIFT_CONCRETE_INTERPRETER_H

#include "ir/Program.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

namespace swift {

struct InterpConfig {
  uint64_t Seed = 1;
  uint64_t MaxSteps = 100000; ///< Commands executed before giving up.
  unsigned MaxDepth = 64;     ///< Call-stack depth bound.
  /// Per-mille probability of taking another loop iteration at each
  /// while(*) head.
  unsigned LoopContinuePerMille = 400;
};

/// What one schedule did. Everything but MainDefs and ReachedMainExit
/// holds for the run prefix that executed, however it ended.
struct InterpResult {
  /// Allocation sites whose objects entered the error typestate.
  std::set<SiteId> ErrorSites;
  /// Method calls run on a non-null receiver: (proc, node) of the call
  /// and the allocation site of the receiver.
  std::set<std::tuple<ProcId, NodeId, SiteId>> Calls;
  /// The dereference of an explicitly assigned null that halted the run;
  /// a dereference of an uninitialized null halts it silently.
  std::optional<std::pair<ProcId, NodeId>> NullDeref;
  /// Stores that ran (on a non-null base).
  std::set<std::pair<ProcId, NodeId>> Stores;
  /// Main's final direct definitions: each variable of main's frame to
  /// the node that last assigned it. A call's result untracks its target.
  std::map<Symbol, NodeId> MainDefs;
  /// The run returned from main: no halt, no exhausted budget.
  bool ReachedMainExit = false;
  /// False if the step or depth budget was exhausted mid-run.
  bool Completed = false;
  uint64_t Steps = 0;
  uint64_t ObjectsAllocated = 0;
};

/// Executes one schedule of \p Prog (one resolution of all choices).
InterpResult interpret(const Program &Prog, const InterpConfig &Cfg);

} // namespace swift

#endif // SWIFT_CONCRETE_INTERPRETER_H
