//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-call cost of the typestate relation algebra (rcomp, wp, rtrans,
/// predicate evaluation, call composition), timed by calling the public
/// typestate functions on operands harvested from a finished bottom-up
/// solve of the workload's own program (or of the bottom of its call graph,
/// where pure BU does not finish on the whole program in time). The operand
/// sample is drawn from the run's seed, so two runs time the same calls.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "framework/RelationalSolver.h"
#include "support/Rng.h"
#include "typestate/RelCall.h"
#include "typestate/TsAnalysis.h"

#include <functional>
#include <set>
#include <stdexcept>

using namespace swift;
using namespace swift::perfbench;

namespace {

constexpr size_t MaxOperands = 1000;

/// Nanoseconds per call of \p Body over \p N operands: the whole sweep is
/// repeated until 20 ms have passed, three times; the median sweep wins.
double nsPerCall(size_t N, const std::function<void(size_t)> &Body) {
  if (N == 0)
    return 0;
  Samples S;
  for (int Rep = 0; Rep != 3; ++Rep) {
    Clock::time_point T0 = Clock::now();
    size_t Calls = 0;
    do {
      for (size_t I = 0; I != N; ++I)
        Body(I);
      Calls += N;
    } while (secondsSince(T0) < 0.02);
    S.add(secondsSince(T0) * 1e9 / static_cast<double>(Calls));
  }
  return S.median();
}

template <typename T> std::vector<T> sample(std::vector<T> V, Rng &G) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[G.below(I)]);
  if (V.size() > MaxOperands)
    V.resize(MaxOperands);
  return V;
}

} // namespace

void perfbench::measureRelationOps(Program &Prog, uint64_t Seed, Report &R,
                                   size_t MaxClosure) {
  TsContext Ctx(Prog, Prog.symbols().intern(trackedClass()));
  Budget Bud(UINT64_MAX, 120);
  Stats Stat;
  RelationalSolver<TsAnalysis> Solver(
      Ctx, Prog, Ctx.callGraph(), NoPruning,
      [](ProcId) -> const std::unordered_map<TsAbstractState, uint64_t> * {
        return nullptr;
      },
      Bud, Stat);
  const CallGraph &CG = Ctx.callGraph();
  std::vector<ProcId> All = CG.reachableFrom(Prog.mainProc());
  if (All.size() > MaxClosure) {
    // The bottom of the call graph: every procedure whose callee closure
    // has at most MaxClosure procedures, with that closure (so the set
    // stays closed under callees and BU can solve it).
    std::set<ProcId> Bottom;
    for (ProcId P : All) {
      std::vector<ProcId> Closure = CG.reachableFrom(P);
      if (Closure.size() <= MaxClosure)
        Bottom.insert(Closure.begin(), Closure.end());
    }
    All.assign(Bottom.begin(), Bottom.end());
  }
  if (!Solver.run(All))
    throw std::runtime_error("relation harvest: the BU solve did not finish");

  // Operands: summary relations per procedure, and the abstract states
  // their allocation relations create (pushed once through a few
  // relations of the same summary).
  std::vector<std::pair<const TsRelation *, const TsRelation *>> Pairs;
  std::vector<std::pair<ProcId, const TsRelation *>> Owned;
  std::vector<TsAbstractState> States;
  // Each relation meets only a few neighbours of its own summary, so the
  // operand lists stay linear in the summary size.
  constexpr size_t Fanout = 4;
  for (ProcId P : All) {
    const std::vector<TsRelation> &Rels = Solver.summary(P).Rels;
    for (size_t I = 0; I != Rels.size(); ++I) {
      const TsRelation &A = Rels[I];
      for (size_t K = 1; K <= Fanout && K < Rels.size(); ++K) {
        const TsRelation &B = Rels[(I + K) % Rels.size()];
        if (B.isAlloc())
          continue;
        if (!A.isAlloc())
          Pairs.push_back({&A, &B});
        else if (std::optional<TsAbstractState> S = B.apply(Ctx, A.out()))
          States.push_back(*S);
      }
      if (A.isAlloc())
        States.push_back(A.out());
      else
        Owned.push_back({P, &A});
    }
  }
  std::vector<std::pair<ProcId, const Command *>> Prims, Calls;
  for (ProcId P : All)
    for (const CfgNode &N : Prog.proc(P).nodes()) {
      if (N.Cmd.isCall())
        Calls.push_back({P, &N.Cmd});
      else if (N.Cmd.Kind != CmdKind::Nop)
        Prims.push_back({P, &N.Cmd});
    }

  Rng G(Seed);
  Pairs = sample(std::move(Pairs), G);
  States = sample(std::move(States), G);
  std::vector<std::pair<ProcId, const TsRelation *>> OwnedS =
      sample(Owned, G);
  Prims = sample(std::move(Prims), G);
  Calls = sample(std::move(Calls), G);

  // Every procedure's relations, for pairing a command or call site with
  // relations of the procedure it sits in.
  std::map<ProcId, std::vector<const TsRelation *>> ByProc;
  for (const auto &[P, Rel] : Owned)
    ByProc[P].push_back(Rel);
  TsRelation Identity = TsRelation::makeIdentity(Ctx.spec().numStates());
  auto RelFor = [&](ProcId P, size_t I) -> const TsRelation & {
    auto It = ByProc.find(P);
    if (It == ByProc.end() || It->second.empty())
      return Identity;
    return *It->second[I % It->second.size()];
  };

  volatile size_t Sink = 0;
  R.metric("rel.rcomp_ns", nsPerCall(Pairs.size(), [&](size_t I) {
             Sink = Sink + tsRcomp(Ctx, *Pairs[I].first, *Pairs[I].second)
                               .has_value();
           }),
           "ns", Pairs.size());
  R.metric("rel.wp_ns", nsPerCall(Pairs.size(), [&](size_t I) {
             Sink = Sink + tsWpPred(*Pairs[I].first, Pairs[I].second->phi())
                               .has_value();
           }),
           "ns", Pairs.size());
  R.metric("rel.rtrans_ns", nsPerCall(Prims.size(), [&](size_t I) {
             auto [P, Cmd] = Prims[I];
             Sink = Sink + tsRtrans(Ctx, P, *Cmd, RelFor(P, I)).size();
           }),
           "ns", Prims.size());
  size_t NSat = std::min(States.size(), OwnedS.size());
  R.metric("rel.satisfied_by_ns", nsPerCall(NSat, [&](size_t I) {
             Sink = Sink + OwnedS[I].second->phi().satisfiedBy(Ctx, States[I]);
           }),
           "ns", NSat);
  std::vector<CallBinding> Bindings;
  for (const auto &[P, Cmd] : Calls)
    Bindings.emplace_back(Ctx, P, *Cmd);
  R.metric("rel.compose_call_ns", nsPerCall(Calls.size(), [&](size_t I) {
             const auto &Callee = Solver.summary(Calls[I].second->Callee);
             TsSummaryView V{&Callee.Rels, &Callee.Sigma};
             std::vector<TsRelation> Out;
             TsIgnoreSet Sigma;
             tsComposeCall(Ctx, Bindings[I], RelFor(Calls[I].first, I), V,
                           Out, Sigma);
             Sink = Sink + Out.size();
           }),
           "ns", Calls.size());
}
