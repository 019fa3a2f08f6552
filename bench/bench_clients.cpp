//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-domain generality bench: every registered analysis domain
/// (the three IFDS-shaped clients and the relational interval domain) on
/// the shared benchmark workloads, TD vs BU vs SWIFT. Rows keep the
/// swift-bench v1 schema (seconds/steps/td_summaries/bu_relations per
/// (workload, config) row), so swift-benchdiff and the CI perf gate
/// consume them unchanged; configs are namespaced by domain
/// ("taint/td", "interval/swift_k5_th4", ...).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "clients/Registry.h"

#include <cstdio>

using namespace swift;
using namespace swift::bench;
using namespace swift::clients;

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  Reporter Rep(O, "bench_clients");
  RunLimits L = limits(O);

  std::printf("Client domains on the shared workloads: TD vs BU vs SWIFT "
              "(k=5, theta=4), budget %.0fs\n\n",
              O.BudgetSeconds);
  std::printf("%-10s %-10s | %9s %9s %9s | %8s %8s | %7s\n", "name",
              "domain", "TD", "BU", "SWIFT", "td-sums", "sw-rels",
              "reports");
  std::printf("%.86s\n",
              "----------------------------------------------------------"
              "----------------------------");

  for (const NamedWorkload &W : benchmarkWorkloads()) {
    if (!matchesOnly(O, W.Name))
      continue;
    std::unique_ptr<Program> Prog = generateWorkload(W.Config);

    for (const std::string &Domain : clientDomainNames()) {
      DomainRunResult Td =
          runClientDomain(Domain, *Prog, DomainMode::Td, 5, 4, 1, L);
      DomainRunResult Bu = runClientDomain(Domain, *Prog, DomainMode::Bu,
                                           5, 4, O.Threads, L);
      DomainRunResult Sw =
          runClientDomain(Domain, *Prog, DomainMode::Swift, 5, 4, 1, L);

      Rep.add(W.Name, Domain + "/td", Td);
      Rep.add(W.Name, Domain + "/bu", Bu);
      Rep.add(W.Name, Domain + "/swift_k5_th4", Sw);

      std::printf("%-10s %-10s | %9s %9s %9s | %8s %8s | %7zu\n",
                  W.Name.c_str(), Domain.c_str(), timeCell(Td).c_str(),
                  timeCell(Bu).c_str(), timeCell(Sw).c_str(),
                  Stats::formatThousands(Sw.TdSummaries).c_str(),
                  Stats::formatThousands(Sw.BuRelations).c_str(),
                  Sw.Reports.size());
      std::fflush(stdout);
    }
  }
  return Rep.flush() ? 0 : 1;
}
