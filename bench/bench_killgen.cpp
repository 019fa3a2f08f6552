//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second framework instantiation on the same workloads: the
/// kill/gen taint analysis of the paper's Section 5.2 (bottom-up side
/// synthesized from the top-down transfer). For this analysis family the
/// bottom-up analysis does not case-split, so — as the paper argues — the
/// conventional bottom-up approach is already cheap and SWIFT's benefit
/// over TD is modest; the point of this table is framework generality,
/// not a performance win.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "killgen/KgRunner.h"

#include <cstdio>

using namespace swift;
using namespace swift::bench;

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  Reporter Rep(O, "bench_killgen");
  RunLimits L = limits(O);

  std::printf("Kill/gen (taint) instantiation: TD vs BU vs SWIFT "
              "(k=5, theta=4), budget %.0fs\n\n",
              O.BudgetSeconds);
  std::printf("%-10s | %9s %9s %9s | %8s %8s | %6s\n", "name", "TD", "BU",
              "SWIFT", "td-sums", "sw-sums", "leaks");
  std::printf("%.78s\n",
              "----------------------------------------------------------"
              "--------------------");

  for (const NamedWorkload &W : benchmarkWorkloads()) {
    if (!matchesOnly(O, W.Name))
      continue;
    std::unique_ptr<Program> Prog = generateWorkload(W.Config);
    KgContext Ctx(*Prog, {Prog->symbols().intern("File")},
                  {Prog->symbols().intern("open")});

    KgRunResult Td = runTaintTd(Ctx, L);
    KgRunResult Bu = runTaintBu(Ctx, L);
    KgRunResult Sw = runTaintSwift(Ctx, 5, 4, L);

    Rep.add(W.Name, "td", Td);
    Rep.add(W.Name, "bu", Bu);
    Rep.add(W.Name, "swift_k5_th4", Sw);

    std::printf("%-10s | %9s %9s %9s | %8s %8s | %6zu\n", W.Name.c_str(),
                timeCell(Td).c_str(), timeCell(Bu).c_str(),
                timeCell(Sw).c_str(),
                Stats::formatThousands(Td.TdSummaries).c_str(),
                Stats::formatThousands(Sw.TdSummaries).c_str(),
                Sw.Leaks.size());
    std::fflush(stdout);
  }
  return Rep.flush() ? 0 : 1;
}
