//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run driver shared by every (A, B) pair: the decisions that do not
/// depend on the domain, made once. The domain runners
/// (typestate/Runner, clients/Registry), the serve engine and the shard
/// roles all drive the two solvers through these:
///
///  * RunLimits and RunCounts: the limits of one run, and the counts every
///    result reports, filled by recordRun;
///  * runTabulation: one pure-TD or SWIFT solve;
///  * makePureBuSolver and runPureBu: pure BU, the unpruned bottom-up
///    solve;
///  * forEachMainOutput: pure BU's read-out, main's summary applied to
///    the initial Lambda state.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_FRAMEWORK_RUNDRIVER_H
#define SWIFT_FRAMEWORK_RUNDRIVER_H

#include "framework/RelationalSolver.h"
#include "framework/Tabulation.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

namespace swift {

/// Resource limits for one analysis run; default effectively unlimited.
struct RunLimits {
  uint64_t MaxSteps = UINT64_MAX;
  double MaxSeconds = 1e18;
};

/// What every run reports, whatever its domain: how it ended and how many
/// summaries it built. Each domain's result type derives from it.
struct RunCounts {
  bool Timeout = false;
  double Seconds = 0;
  uint64_t Steps = 0;
  uint64_t TdSummaries = 0; ///< Total (entry, exit) pairs.
  std::vector<uint64_t> TdSummariesPerProc; ///< By ProcId; empty for BU.
  uint64_t BuRelations = 0; ///< Total (r, phi) relations.
  Stats Stat;
};

/// Fills \p R from a solve that ran on \p B and charged \p Stat. The
/// summary counts are read from \p Solver even when its budget ran out.
template <typename AN>
void recordRun(RunCounts &R, const TabulationSolver<AN> &Solver,
               const Budget &B, bool Finished, Stats &&Stat) {
  R.Timeout = !Finished;
  R.Seconds = B.seconds();
  R.Steps = B.steps();
  R.TdSummariesPerProc = Solver.tdSummariesPerProc();
  R.TdSummaries = std::accumulate(R.TdSummariesPerProc.begin(),
                                  R.TdSummariesPerProc.end(), uint64_t(0));
  R.BuRelations = Solver.totalBuRelations();
  R.Stat = std::move(Stat);
}

template <typename AN>
void recordRun(RunCounts &R, const RelationalSolver<AN> &Solver,
               const Budget &B, bool Finished, Stats &&Stat) {
  R.Timeout = !Finished;
  R.Seconds = B.seconds();
  R.Steps = B.steps();
  R.TdSummaries = 0;
  R.BuRelations = Solver.totalRelations();
  R.Stat = std::move(Stat);
}

/// One top-down solve under a fresh budget of \p L: pure TD when
/// Cfg.K == NoBuTrigger, SWIFT otherwise. Records \p R's counts, then
/// hands the solver to \p Harvest, also when the budget ran out.
template <typename AN, typename HarvestFn>
void runTabulation(const typename AN::Context &Ctx,
                   const typename TabulationSolver<AN>::Config &Cfg,
                   RunLimits L, RunCounts &R, HarvestFn Harvest) {
  Budget Bud(L.MaxSteps, L.MaxSeconds);
  Stats Stat;
  TabulationSolver<AN> Solver(Ctx, Ctx.program(), Ctx.callGraph(), Cfg, Bud,
                              Stat);
  bool Finished = Solver.run();
  recordRun(R, Solver, Bud, Finished, std::move(Stat));
  Harvest(Solver);
}

/// The pure-BU solver: no pruning (theta = NoPruning, so no top-down
/// frequencies are ever consulted). Batch BU, the serve engine and every
/// shard role use this one configuration, so their summaries agree byte
/// for byte; callers vary only the budget, stats, worker count, relation
/// cap and governor.
template <typename AN>
RelationalSolver<AN>
makePureBuSolver(const typename AN::Context &Ctx, Budget &B, Stats &S,
                 unsigned Threads = 1,
                 uint64_t MaxRelsPerPoint = DefaultMaxRelsPerPoint,
                 ResourceGovernor *Gov = nullptr) {
  return RelationalSolver<AN>(Ctx, Ctx.program(), Ctx.callGraph(), NoPruning,
                              /*Freq=*/nullptr, B, S, MaxRelsPerPoint,
                              Threads, Gov);
}

/// Pure BU's read-out: applies \p Main, main's finished summary, to the
/// initial Lambda state, the only top-down step pure BU takes. Calls
/// \p OnExit for each state at main's exit (Lambda itself when it reaches
/// the exit) and \p OnObserved for each output of the observation
/// manifest, i.e. states at internal points. States may repeat.
template <typename AN, typename ExitFn, typename ObservedFn>
void forEachMainOutput(const typename AN::Context &Ctx,
                       const typename RelationalSolver<AN>::Summary &Main,
                       ExitFn OnExit, ObservedFn OnObserved) {
  if (Main.LambdaExit)
    OnExit(AN::lambda());
  for (const typename AN::Rel &Rel : Main.Rels)
    if (std::optional<typename AN::State> Out =
            AN::applyRel(Ctx, Rel, AN::lambda()))
      OnExit(*Out);
  for (const typename AN::Rel &Rel : Main.ObsRels)
    if (std::optional<typename AN::State> Out =
            AN::applyRel(Ctx, Rel, AN::lambda()))
      OnObserved(*Out);
}

/// Pure BU: the makePureBuSolver solve of everything reachable from main
/// under a fresh budget of \p L on \p Threads workers. Records \p R's
/// counts and, when the solve finished, hands main's summary to
/// \p ReadOut.
template <typename AN, typename ReadOutFn>
void runPureBu(const typename AN::Context &Ctx, RunLimits L,
               unsigned Threads, RunCounts &R, ReadOutFn ReadOut) {
  Budget Bud(L.MaxSteps, L.MaxSeconds);
  Stats Stat;
  RelationalSolver<AN> Solver = makePureBuSolver<AN>(Ctx, Bud, Stat, Threads);
  ProcId Main = Ctx.program().mainProc();
  bool Finished = Solver.run(Ctx.callGraph().reachableFrom(Main));
  recordRun(R, Solver, Bud, Finished, std::move(Stat));
  if (Finished)
    ReadOut(Solver.summary(Main));
}

} // namespace swift

#endif // SWIFT_FRAMEWORK_RUNDRIVER_H
