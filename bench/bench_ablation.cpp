//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation studies beyond the paper's tables (the design choices called
/// out in DESIGN.md):
///
///  (a) k x theta interaction grid on a mid-size workload — how the two
///      thresholds trade the top-down against the bottom-up cost.
///  (b) Observation-manifest cost: our summaries carry entry-to-internal-
///      point "error manifest" relations so SWIFT reports exactly the
///      error sites TD reports. Disabling the manifest uses the paper's
///      plain exit summaries (weaker guard, no manifest application);
///      this measures what the exact-error-reporting extension costs and
///      whether it changes reported errors on these workloads.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace swift;
using namespace swift::bench;

namespace {

TsRunResult runVariant(const TsContext &Ctx, uint64_t K, uint64_t Theta,
                       bool Manifest, const RunLimits &L, unsigned Threads) {
  SwiftRunConfig SC;
  SC.K = K;
  SC.Theta = Theta;
  SC.Threads = Threads;
  SC.ObservationManifest = Manifest;
  return runTypestateSwift(Ctx, SC, L);
}

uint64_t served(const TsRunResult &R) {
  return R.Stat.get("td.bu_served_calls");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  RunLimits L = limits(O);
  const char *Name = O.Only.empty() ? "luindex" : O.Only.c_str();

  const NamedWorkload *W = findWorkload(Name);
  if (!W) {
    std::printf("unknown workload '%s'\n", Name);
    return 1;
  }
  std::unique_ptr<Program> Prog = generateWorkload(W->Config);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  Reporter Rep(O, "bench_ablation");

  auto Record = [&](const std::string &Config, const TsRunResult &R) {
    auto &Row = Rep.addRow(Name, Config, R);
    Row.set("seconds", R.Seconds);
    Row.set("td_summaries", double(R.TdSummaries));
    Row.set("bu_served", double(served(R)));
    Row.set("error_sites", double(R.ErrorSites.size()));
  };

  std::printf("Ablation (a): k x theta grid on %s (time; td-summaries)\n\n",
              Name);
  std::printf("%8s |", "k\\theta");
  for (uint64_t Theta : {1, 2, 4, 8})
    std::printf(" %18llu", static_cast<unsigned long long>(Theta));
  std::printf("\n%.88s\n",
              "----------------------------------------------------------"
              "------------------------------");
  for (uint64_t K : {2, 5, 20, 100}) {
    std::printf("%8llu |", static_cast<unsigned long long>(K));
    for (uint64_t Theta : {1, 2, 4, 8}) {
      TsRunResult R = runVariant(Ctx, K, Theta, true, L, O.Threads);
      Record("swift_k" + std::to_string(K) + "_th" + std::to_string(Theta),
             R);
      char Cell[40];
      if (R.Timeout)
        std::snprintf(Cell, sizeof(Cell), "timeout");
      else
        std::snprintf(Cell, sizeof(Cell), "%s; %s",
                      formatSeconds(R.Seconds).c_str(),
                      Stats::formatThousands(R.TdSummaries).c_str());
      std::printf(" %18s", Cell);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\nAblation (b): observation manifest on vs off "
              "(k=5, theta=2)\n\n");
  std::printf("%-10s %10s %12s %10s %8s\n", "variant", "time",
              "td-summaries", "bu-served", "errors");
  for (bool Manifest : {true, false}) {
    TsRunResult R = runVariant(Ctx, 5, 2, Manifest, L, O.Threads);
    Record(Manifest ? "manifest_on" : "manifest_off", R);
    std::printf("%-10s %10s %12s %10s %8zu\n",
                Manifest ? "manifest" : "plain", timeCell(R).c_str(),
                Stats::formatThousands(R.TdSummaries).c_str(),
                Stats::formatThousands(served(R)).c_str(),
                R.ErrorSites.size());
  }
  std::printf("\nThe plain variant may serve more calls (weaker guard) "
              "but can miss error sites that only manifest on diverging "
              "paths inside served callees.\n");
  return Rep.flush() ? 0 : 1;
}
