//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graceful-degradation sweep: runs SWIFT (k=5, theta=2) under the
/// resource governor on each workload, first uncapped to learn the full
/// step count, then at 1/8, 1/4, and 1/2 of that budget. Each row reports
/// how much of the verdict vector a partial run resolves (resolved =
/// proved or error-reported; the partial-soundness oracle guarantees the
/// resolved verdicts agree with the full run's), the peak pressure level
/// reached, and the budget's phase attribution (TD vs BU steps). The
/// expected shape: resolved fraction grows monotonically with budget and
/// reaches 1.0 at the full budget, while the Yellow/Red ladder shifts
/// steps from BU minting back to TD.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace swift;
using namespace swift::bench;

namespace {

struct Row {
  TsGovernedResult G;
  uint64_t Resolved = 0;
};

Row runAt(const TsContext &Ctx, uint64_t MaxSteps, double MaxSeconds) {
  GovernedRunOptions GO;
  GO.Config.K = 5;
  GO.Config.Theta = 2;
  GO.Limits.MaxSteps = MaxSteps;
  GO.Limits.MaxSeconds = MaxSeconds;
  Row R;
  R.G = runTypestateGoverned(Ctx, GO);
  for (TsVerdict V : R.G.Verdicts)
    if (V != TsVerdict::Unresolved)
      ++R.Resolved;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  Reporter Rep(O, "bench_degrade");

  std::printf("Degradation sweep: governed SWIFT (k=5, theta=2) at "
              "fractional step budgets, wall cap %.0fs per run\n\n",
              O.BudgetSeconds);
  std::printf("%-10s %-7s | %9s %9s %8s | %9s %9s | %s\n", "name",
              "budget", "steps", "resolved", "pressure", "td", "bu",
              "result");
  std::printf("%.100s\n",
              "----------------------------------------------------------"
              "----------------------------------------------------------");

  for (const NamedWorkload &W : benchmarkWorkloads()) {
    if (!matchesOnly(O, W.Name))
      continue;
    std::unique_ptr<Program> Prog = generateWorkload(W.Config);
    TsContext Ctx(*Prog, Prog->symbols().intern("File"));

    Row Full = runAt(Ctx, O.BudgetSteps, O.BudgetSeconds);
    uint64_t FullSteps = Full.G.Run.Steps;
    struct Tier {
      const char *Label;
      uint64_t Steps;
    };
    // At least 2 steps so the smallest tier still pops one edge.
    Tier Tiers[] = {{"1/8", std::max<uint64_t>(2, FullSteps / 8)},
                    {"1/4", std::max<uint64_t>(2, FullSteps / 4)},
                    {"1/2", std::max<uint64_t>(2, FullSteps / 2)},
                    {"full", 0}};

    for (const Tier &T : Tiers) {
      Row R = T.Steps == 0 ? Full : runAt(Ctx, T.Steps, O.BudgetSeconds);
      const Stats &S = R.G.Run.Stat;
      {
        // Row keys are "workload/config" strings; keep '/' out of the
        // config ("1/8" -> "1o8").
        std::string Cfg = "governed_";
        for (const char *P = T.Label; *P; ++P)
          Cfg += *P == '/' ? 'o' : *P;
        auto &JR = Rep.addRow(W.Name, Cfg, R.G.Run);
        JR.set("seconds", R.G.Run.Seconds);
        JR.set("steps", double(R.G.Run.Steps));
        JR.set("unresolved",
               double(R.G.Verdicts.size() - size_t(R.Resolved)));
      }
      std::printf("%-10s %-7s | %9llu %5llu/%-3zu %8s | %9s %9s | %s\n",
                  W.Name.c_str(), T.Label,
                  static_cast<unsigned long long>(R.G.Run.Steps),
                  static_cast<unsigned long long>(R.Resolved),
                  R.G.Verdicts.size(), pressureName(R.G.Peak),
                  Stats::formatThousands(S.get("budget.td_steps")).c_str(),
                  Stats::formatThousands(S.get("budget.sync_bu_steps"))
                      .c_str(),
                  R.G.Partial ? "partial" : "complete");
      std::fflush(stdout);
    }
  }

  std::printf("\nExpected shape: the resolved fraction grows with the "
              "budget and hits every site at the full budget; partial "
              "tiers end at red pressure with BU minting suppressed "
              "(sound by the Sigma fallback), so their resolved verdicts "
              "are a subset of the full run's.\n");
  return Rep.flush() ? 0 : 1;
}
