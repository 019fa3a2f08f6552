//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation beyond the paper's tables: the k x theta interaction grid on
/// a mid-size workload — how the two thresholds trade the top-down
/// against the bottom-up cost.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace swift;
using namespace swift::bench;

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

  std::printf("k x theta grid on %s (time; td-summaries)\n\n", Name);
  std::printf("%8s |", "k\\theta");
  for (uint64_t Theta : {1, 2, 4, 8})
    std::printf(" %18llu", static_cast<unsigned long long>(Theta));
  std::printf("\n%.88s\n",
              "----------------------------------------------------------"
              "------------------------------");
  for (uint64_t K : {2, 5, 20, 100}) {
    std::printf("%8llu |", static_cast<unsigned long long>(K));
    for (uint64_t Theta : {1, 2, 4, 8}) {
      TsRunResult R = runTypestateSwift(Ctx, K, Theta, L);
      auto &Row = Rep.addRow(
          Name, "swift_k" + std::to_string(K) + "_th" + std::to_string(Theta),
          R);
      Row.set("seconds", R.Seconds);
      Row.set("td_summaries", double(R.TdSummaries));
      Row.set("bu_served", double(R.Stat.get("td.bu_served_calls")));
      Row.set("error_sites", double(R.ErrorSites.size()));
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
  return Rep.flush() ? 0 : 1;
}
