//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "killgen/KgRunner.h"

using namespace swift;

namespace {

void reportLeak(KgRunResult &R, const KgFact &F) {
  if (F.K == KgFact::Kind::Leak)
    R.Leaks.insert({F.Proc, F.Node});
}

KgRunResult runTabulating(const KgContext &Ctx, uint64_t K, uint64_t Theta,
                          RunLimits Limits, unsigned Threads = 1) {
  TabulationSolver<KgAnalysis>::Config Cfg;
  Cfg.K = K;
  Cfg.Theta = Theta;
  Cfg.BuThreads = Threads;
  KgRunResult R;
  runTabulation<KgAnalysis>(
      Ctx, Cfg, Limits, R, [&](const TabulationSolver<KgAnalysis> &Solver) {
        Solver.forEachFact([&](ProcId, NodeId, const KgFact &,
                               const KgFact &Cur) { reportLeak(R, Cur); });
        Solver.forEachObserved(
            [&](ProcId, NodeId, const KgFact &S) { reportLeak(R, S); });
      });
  return R;
}

} // namespace

KgRunResult swift::runTaintTd(const KgContext &Ctx, RunLimits Limits) {
  return runTabulating(Ctx, NoBuTrigger, 1, Limits);
}

KgRunResult swift::runTaintSwift(const KgContext &Ctx, uint64_t K,
                                 uint64_t Theta, RunLimits Limits,
                                 unsigned Threads) {
  return runTabulating(Ctx, K, Theta, Limits, Threads);
}

KgRunResult swift::runTaintBu(const KgContext &Ctx, RunLimits Limits,
                              unsigned Threads) {
  KgRunResult R;
  auto Report = [&R](const KgFact &F) { reportLeak(R, F); };
  runPureBu<KgAnalysis>(
      Ctx, Limits, Threads, R,
      [&](const RelationalSolver<KgAnalysis>::Summary &Main) {
        forEachMainOutput<KgAnalysis>(Ctx, Main, Report, Report);
      });
  return R;
}
