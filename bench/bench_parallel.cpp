//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-count sweep of the parallel bottom-up solver: runs SWIFT
/// (k=5, theta=2) on three mid-size configs with 1/2/4/8 workers per
/// bottom-up solve (the SCC-DAG wavefront of RelationalSolver) and
/// reports the total bottom-up solve time, its speedup over the 1-thread
/// run, and the summary counts — which must be identical across thread
/// counts (the wavefront is deterministic).
///
/// Speedup tops out at the hardware's core count and at the available
/// SCC-DAG width of the workload's call graph; on a single-core host the
/// sweep degenerates to measuring scheduler overhead.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace swift;
using namespace swift::bench;

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  RunLimits L = limits(O);
  Reporter Rep(O, "bench_parallel");

  const char *Configs[] = {"toba-s", "javasrc-p", "antlr"};

  std::printf("Parallel bottom-up sweep: SWIFT (k=5, theta=2), "
              "budget %.0fs per run, %u hardware threads\n\n",
              O.BudgetSeconds, std::thread::hardware_concurrency());
  std::printf("%-10s %8s | %10s %10s %8s | %10s %8s\n", "name", "threads",
              "total", "bu-time", "bu-spd", "td-sums", "bu-rels");
  std::printf("%.78s\n",
              "----------------------------------------------------------"
              "--------------------");

  for (const char *Name : Configs) {
    if (!matchesOnly(O, Name))
      continue;
    const NamedWorkload *W = findWorkload(Name);
    if (!W) {
      std::printf("unknown workload '%s'\n", Name);
      return 1;
    }
    std::unique_ptr<Program> Prog = generateWorkload(W->Config);
    TsContext Ctx(*Prog, Prog->symbols().intern("File"));

    double BuBase = 0;
    uint64_t TdSumsBase = 0, BuRelsBase = 0;
    for (unsigned T : {1u, 2u, 4u, 8u}) {
      TsRunResult R = runTypestateSwift(Ctx, 5, 2, L, T);
      double BuSecs =
          static_cast<double>(R.Stat.get("swift.bu_time_us")) / 1e6;
      Rep.add(Name, "swift_k5_th2_t" + std::to_string(T), R);
      char Spd[16];
      if (T == 1) {
        BuBase = BuSecs;
        TdSumsBase = R.TdSummaries;
        BuRelsBase = R.BuRelations;
        std::snprintf(Spd, sizeof(Spd), "1.0X");
      } else {
        std::snprintf(Spd, sizeof(Spd), "%.1fX",
                      BuBase / std::max(BuSecs, 1e-9));
      }
      std::printf("%-10s %8u | %10s %10s %8s | %10s %8s%s\n", Name, T,
                  R.Timeout ? "timeout" : formatSeconds(R.Seconds).c_str(),
                  formatSeconds(BuSecs).c_str(), R.Timeout ? "-" : Spd,
                  Stats::formatThousands(R.TdSummaries).c_str(),
                  Stats::formatThousands(R.BuRelations).c_str(),
                  !R.Timeout && T != 1 &&
                          (R.TdSummaries != TdSumsBase ||
                           R.BuRelations != BuRelsBase)
                      ? "  <-- NONDETERMINISTIC"
                      : "");
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("bu-time is the summed wall time of all triggered bottom-up "
              "solves (swift.bu_time_us); bu-spd is its speedup over the "
              "1-thread row. Summary counts must match across rows.\n");
  return Rep.flush() ? 0 : 1;
}
