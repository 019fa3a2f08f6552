//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "typestate/Runner.h"

using namespace swift;

namespace {

TabulationSolver<TsAnalysis>::Config
tabulationConfig(const SwiftRunConfig &SC) {
  TabulationSolver<TsAnalysis>::Config Cfg;
  Cfg.K = SC.K;
  Cfg.Theta = SC.Theta;
  return Cfg;
}

/// Collects errors and summary counts out of a finished tabulation whose
/// counts recordRun has filled. \p HarvestPartial: governed runs harvest
/// even on budget exhaustion — tabulation only accumulates, so the partial
/// facts are a sound subset of the fixpoint's. Ungoverned runs keep the
/// timeout contract of TsRunResult.
void harvest(const TsContext &Ctx, const TabulationSolver<TsAnalysis> &Solver,
             TsRunResult &R, bool HarvestPartial = false) {
  const Program &Prog = Ctx.program();
  if (R.Timeout && !HarvestPartial) {
    R.TdSummaries = 0;
    R.TdSummariesPerProc.assign(Prog.numProcs(), 0);
    R.BuRelations = 0;
    return;
  }

  TState Error = Ctx.spec().errorState();
  Solver.forEachFact([&](ProcId P, NodeId N, const TsAbstractState &Entry,
                         const TsAbstractState &Cur) {
    (void)Entry;
    if (!Cur.isLambda() && Cur.tstate() == Error) {
      R.ErrorSites.insert(Cur.site());
      R.ErrorPoints.insert(TsError{Cur.site(), P, N});
    }
  });
  Solver.forEachObserved([&](ProcId P, NodeId N,
                             const TsAbstractState &S) {
    assert(!S.isLambda() && S.tstate() == Error);
    R.ErrorSites.insert(S.site());
    // The report point is the serving call site; the true point is inside
    // the (not re-analyzed) callee.
    R.ErrorPoints.insert(TsError{S.site(), P, N});
  });
  Solver.forEachSummary(Prog.mainProc(),
                        [&](const TsAbstractState &Entry,
                            const TsAbstractState &Exit) {
                          if (Entry.isLambda())
                            R.MainExit.insert(Exit);
                        });
}

TsRunResult runTabulating(const TsContext &Ctx, const SwiftRunConfig &SC,
                          RunLimits Limits) {
  TsRunResult R;
  runTabulation<TsAnalysis>(
      Ctx, tabulationConfig(SC), Limits, R,
      [&](const TabulationSolver<TsAnalysis> &S) { harvest(Ctx, S, R); });
  return R;
}

} // namespace

TsRunResult swift::runTypestateTd(const TsContext &Ctx, RunLimits Limits) {
  return runTabulating(Ctx, SwiftRunConfig{NoBuTrigger, 1}, Limits);
}

TsRunResult swift::runTypestateSwift(const TsContext &Ctx, uint64_t K,
                                     uint64_t Theta, RunLimits Limits) {
  return runTabulating(Ctx, SwiftRunConfig{K, Theta}, Limits);
}

const char *swift::tsVerdictName(TsVerdict V) {
  switch (V) {
  case TsVerdict::Proved:
    return "proved";
  case TsVerdict::ErrorReported:
    return "error";
  case TsVerdict::Unresolved:
    return "unresolved";
  }
  return "?";
}

TsVerdict swift::tsVerdict(const TsContext &Ctx, SiteId S,
                           const std::set<SiteId> &ErrorSites, bool Partial) {
  if (!Ctx.isTrackedSite(S))
    return TsVerdict::Proved;
  if (ErrorSites.count(S))
    return TsVerdict::ErrorReported;
  // A partial run must not claim absence of errors it did not finish
  // looking for.
  return Partial ? TsVerdict::Unresolved : TsVerdict::Proved;
}

std::vector<TsVerdict> swift::tsVerdicts(const TsContext &Ctx,
                                         const std::set<SiteId> &ErrorSites,
                                         bool Partial) {
  std::vector<TsVerdict> V(Ctx.program().numSites());
  for (SiteId S = 0; S != V.size(); ++S)
    V[S] = tsVerdict(Ctx, S, ErrorSites, Partial);
  return V;
}

void swift::readMainSummary(const TsContext &Ctx,
                            const RelationalSolver<TsAnalysis>::Summary &Main,
                            std::set<SiteId> &ErrorSites,
                            std::set<TsAbstractState> *MainExit,
                            std::set<TsError> *ErrorPoints) {
  const Program &Prog = Ctx.program();
  TState Error = Ctx.spec().errorState();
  auto AddError = [&](const TsAbstractState &S) {
    if (S.isLambda() || S.tstate() != Error)
      return;
    ErrorSites.insert(S.site());
    if (ErrorPoints)
      ErrorPoints->insert(TsError{S.site(), Prog.mainProc(),
                                  Prog.proc(Prog.mainProc()).exit()});
  };
  forEachMainOutput<TsAnalysis>(
      Ctx, Main,
      [&](const TsAbstractState &S) {
        if (MainExit)
          MainExit->insert(S);
        AddError(S);
      },
      AddError);
}

TsGovernedResult swift::runTypestateGoverned(const TsContext &Ctx,
                                             const GovernedRunOptions &Opts) {
  ResourceGovernor Gov(Opts.Limits);
  // Publish the governor for signal handlers; cleared on every exit path
  // before Gov dies (the slot outlives the run, the governor does not).
  struct SlotGuard {
    std::atomic<ResourceGovernor *> *Slot;
    ~SlotGuard() {
      if (Slot)
        Slot->store(nullptr, std::memory_order_release);
    }
  } Guard{Opts.GovSlot};
  if (Opts.GovSlot)
    Opts.GovSlot->store(&Gov, std::memory_order_release);
  Stats Stat;
  TabulationSolver<TsAnalysis>::Config Cfg = tabulationConfig(Opts.Config);
  Cfg.Gov = &Gov;
  TabulationSolver<TsAnalysis> Solver(Ctx, Ctx.program(), Ctx.callGraph(),
                                      Cfg, Gov.budget(), Stat);
  if (Opts.ResumeFrom)
    Solver.restore(*Opts.ResumeFrom);
  bool Finished = Solver.run();
  Gov.recompute(); // Final telemetry, past the poll throttle.

  TsGovernedResult G;
  G.Partial = !Finished;
  G.Peak = Gov.level();
  G.PeakMemoryBytes = Gov.peakMemoryBytes();

  // Checkpoint before harvesting: snapshot() wants the solver untouched,
  // and harvest only reads.
  if (Opts.CheckpointOut && !Finished) {
    *Opts.CheckpointOut = Solver.snapshot();
    Opts.CheckpointOut->StepsConsumed = Gov.budget().steps();
  }

  recordRun(G.Run, Solver, Gov.budget(), Finished, std::move(Stat));
  harvest(Ctx, Solver, G.Run, /*HarvestPartial=*/true);
  G.Verdicts = tsVerdicts(Ctx, G.Run.ErrorSites, G.Partial);
  return G;
}

TsRunResult swift::runTypestateBu(const TsContext &Ctx, RunLimits Limits,
                                  unsigned Threads) {
  TsRunResult R;
  runPureBu<TsAnalysis>(
      Ctx, Limits, Threads, R,
      [&](const RelationalSolver<TsAnalysis>::Summary &Main) {
        readMainSummary(Ctx, Main, R.ErrorSites, &R.MainExit,
                        &R.ErrorPoints);
      });
  if (R.Timeout)
    R.BuRelations = 0; // The timeout contract of TsRunResult.
  return R;
}
