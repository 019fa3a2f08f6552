//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time interface between the generic SWIFT framework and a
/// concrete analysis pair (a top-down analysis A and a bottom-up analysis
/// B satisfying conditions C1-C3 of the paper). An analysis plugs in by
/// providing a traits class with the following members; see
/// typestate/TsAnalysis.h for the flagship instantiation and
/// clients/ifds/IfdsAnalysis.h for a second, IFDS-style one (the kill/gen
/// family of Section 5.2).
///
/// \code
///   struct MyAnalysis {
///     using Context = ...;   // immutable analysis environment
///     using State   = ...;   // abstract state; hashable, ==, <
///     using Rel     = ...;   // abstract relation; ==, <
///     using Ignore  = ...;   // ignored-input set (Sigma); ==, unionWith,
///                            // contains(Context, State), containsLambda
///     using Binding = ...;   // per-call-site binding info
///
///     // -- Top-down analysis (paper Section 3.1) --
///     static State lambda();               // the "no fact yet" state
///     static bool isLambda(const State &);
///     static std::vector<State> transfer(const Context &, ProcId,
///                                        const Command &, const State &);
///     static Binding makeBinding(const Context &, ProcId,
///                                const Command &);
///     // Call boundary: facts entering the callee, facts bypassing it
///     // (call-to-return flow), and the return mapping pairing the
///     // caller's state at the call (the frame) with callee exits.
///     static std::vector<State> enter(const Binding &, const State &);
///     static std::vector<State> callLocal(const Binding &, const State &);
///     static std::vector<State> combine(const Binding &,
///                                       const State &Frame,
///                                       const State &Exit);
///     static std::vector<State> combineFresh(const Binding &,
///                                            const State &Exit);
///
///     // -- Bottom-up analysis (paper Sections 3.2, 3.5) --
///     struct SummaryView { const std::vector<Rel> *Rels;
///                          const Ignore *Sigma; };
///     static Rel identityRel(const Context &);           // id#
///     static std::vector<Rel> rtrans(const Context &, ProcId,
///                                    const Command &, const Rel &);
///     // Relations spawned from the implicit Lambda identity (fresh
///     // facts created by a command).
///     static std::vector<Rel> lambdaEmits(const Context &,
///                                         const Command &);
///     // [[g()]]^r: compose one caller relation (or the Lambda route)
///     // with a callee summary; Sigma pullbacks go to SigmaOut.
///     static void composeCall(const Context &, const Binding &,
///                             const Rel &, const SummaryView &,
///                             std::vector<Rel> &Out, Ignore &SigmaOut);
///     static void composeCallLambda(const Context &, const Binding &,
///                                   const SummaryView &,
///                                   std::vector<Rel> &Out,
///                                   Ignore &SigmaOut);
///     static std::optional<State> applyRel(const Context &, const Rel &,
///                                          const State &);
///
///     // -- Observations (error reporting through summaries) --
///     static bool relMayObserve(const Context &, const Rel &);
///     static bool stateObservable(const Context &, const State &);
///
///     // -- Pruning support (paper Section 3.4) --
///     static bool relIsPrunable(const Rel &); // case-split relations
///     static size_t relGenerality(const Rel &); // tie-break: lower keeps
///     static bool domContains(const Context &, const Rel &,
///                             const State &); // for the rank operator
///     static void addDomToIgnore(const Rel &, Ignore &);
///     static bool ignoreCoversDom(const Ignore &, const Rel &); // excl
///     static void ignoreAll(Ignore &); // degraded "fall back always"
///   };
/// \endcode
///
/// Correctness obligations mirror the paper's Figure 4: transfer and
/// rtrans must be equally precise (C1), composeCall must model the call
/// composition of relations exactly against enter/callLocal/combine (C2
/// at call boundaries), and Sigma pullbacks must over-approximate the
/// inputs whose intermediate states a callee ignores (C3). The test
/// suite checks all three exhaustively for the bundled instantiations.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_FRAMEWORK_ANALYSISTRAITS_H
#define SWIFT_FRAMEWORK_ANALYSISTRAITS_H

namespace swift {
// The interface is duck-typed; this header only documents it.
} // namespace swift

#endif // SWIFT_FRAMEWORK_ANALYSISTRAITS_H
