//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// swift-difftest — differential-testing driver. Fuzzes programs, runs
/// the domain's concrete witness as ground truth plus the oracle's table
/// of analysis modes (TD / pure BU / SWIFT at several (k, theta) and
/// thread counts; difftest/Oracle.h), checks soundness and the
/// paper's coincidence guarantees, and on a mismatch delta-debugs the
/// program to a small reproducer.
///
/// Exit code: 0 all seeds clean, 1 violations found, 2 usage error,
/// 3 clean but resource-exhausted (some reference runs hit their budget,
/// so their coincidence / partial-soundness / checkpoint checks were
/// skipped rather than failed — rerun with a larger --steps/--run-seconds
/// for full coverage).
///
//===----------------------------------------------------------------------===//

#include "clients/TestHooks.h"
#include "clients/Registry.h"
#include "difftest/Difftest.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/CliParse.h"
#include "support/FailPoint.h"

#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

using namespace swift;
using namespace swift::difftest;

namespace {

struct ToolOptions {
  std::string Domain = "typestate";
  uint64_t Seeds = 50;
  uint64_t FirstSeed = 1;
  unsigned Schedules = 8;
  uint64_t Steps = 2'000'000;   ///< Per-analysis-run step budget.
  double RunSeconds = 10.0;     ///< Per-analysis-run wall budget.
  double BudgetSeconds = 1e18;  ///< Whole-campaign wall budget.
  std::string OutDir = "results/repros";
  std::string ReplayPath;
  std::string TraceOut;
  std::string MetricsOut;
  bool InjectBug = false;
  bool NoReduce = false;
  bool ShowHelp = false;
};

std::string domainValueList() {
  std::string S = "typestate";
  for (const std::string &N : clients::clientDomainNames())
    S += ", " + N;
  return S;
}

const char *usageText() {
  return "usage: swift-difftest [options]\n"
         "  --domain=NAME    domain under test: typestate (default) or a\n"
         "                   client domain — taint, nullderef, reachdefs,\n"
         "                   interval (docs/MANUAL.md sections 6 and 14)\n"
         "  --seeds=N        fuzz seeds to test (default 50)\n"
         "  --first-seed=N   first seed (default 1)\n"
         "  --schedules=N    concrete schedules per seed (default 8)\n"
         "  --steps=N        step budget per analysis run (default 2000000)\n"
         "  --run-seconds=S  wall budget per analysis run (default 10)\n"
         "  --budget=S       wall budget for the whole campaign\n"
         "  --out-dir=DIR    reproducer directory (default results/repros;\n"
         "                   empty disables writing)\n"
         "  --replay=FILE    replay one swift-ir reproducer instead of\n"
         "                   fuzzing\n"
         "  --inject-bug     enable the domain's test-only transfer fault\n"
         "                   (proves the oracle catches divergences)\n"
         "  --no-reduce      skip delta-debugging of violations\n"
         "  --trace-out=F    write a Chrome/Perfetto trace of the whole\n"
         "                   campaign/replay to F (MANUAL section 9)\n"
         "  --metrics-out=F  write a swift-metrics JSON snapshot to F\n"
         "  --help           this text\n";
}

bool parseArgs(int Argc, char **Argv, ToolOptions &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    std::string_view V;
    if (cli::matchValueFlag(A, "--domain=", V)) {
      if (V != "typestate" && !clients::isClientDomain(std::string(V))) {
        Err = "invalid --domain value '" + std::string(V) +
              "' (valid values: " + domainValueList() + ")";
        return false;
      }
      O.Domain = V;
    } else if (cli::matchValueFlag(A, "--seeds=", V)) {
      if (!cli::parseU64(V, O.Seeds) || O.Seeds == 0) {
        Err = "invalid --seeds value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--first-seed=", V)) {
      if (!cli::parseU64(V, O.FirstSeed)) {
        Err = "invalid --first-seed value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--schedules=", V)) {
      if (!cli::parseUnsigned(V, O.Schedules, 1, 10'000)) {
        Err = "invalid --schedules value '" + std::string(V) +
              "' (want an integer in [1, 10000])";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--steps=", V)) {
      if (!cli::parseU64(V, O.Steps) || O.Steps == 0) {
        Err = "invalid --steps value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--run-seconds=", V)) {
      if (!cli::parseNonNegDouble(V, O.RunSeconds)) {
        Err = "invalid --run-seconds value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--budget=", V)) {
      if (!cli::parseNonNegDouble(V, O.BudgetSeconds)) {
        Err = "invalid --budget value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--out-dir=", V)) {
      O.OutDir = V;
    } else if (cli::matchValueFlag(A, "--replay=", V)) {
      if (V.empty()) {
        Err = "--replay needs a file path";
        return false;
      }
      O.ReplayPath = V;
    } else if (cli::matchValueFlag(A, "--trace-out=", V)) {
      if (V.empty()) {
        Err = "--trace-out needs a file path";
        return false;
      }
      O.TraceOut = V;
    } else if (cli::matchValueFlag(A, "--metrics-out=", V)) {
      if (V.empty()) {
        Err = "--metrics-out needs a file path";
        return false;
      }
      O.MetricsOut = V;
    } else if (A == "--inject-bug") {
      O.InjectBug = true;
    } else if (A == "--no-reduce") {
      O.NoReduce = true;
    } else if (A == "--help") {
      O.ShowHelp = true;
    } else {
      Err = "unknown flag '" + std::string(A) + "'";
      return false;
    }
  }
  return true;
}

/// The oracle of --domain, with the per-run budgets and schedule count of
/// the flags.
ProgramOracle oracleFor(const ToolOptions &O) {
  OracleOptions OO;
  OO.Limits = {O.Steps, O.RunSeconds};
  OO.Schedules = O.Schedules;
  return programOracle(O.Domain, OO);
}

int replay(const ToolOptions &O) {
  OracleResult R;
  try {
    R = replayFile(O.ReplayPath, oracleFor(O));
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swift-difftest: %s\n", E.what());
    return 2;
  }
  std::printf("replayed %s under %s: %u run(s), %u timed out, %zu "
              "violation(s)\n",
              O.ReplayPath.c_str(), O.Domain.c_str(), R.RunsDone,
              R.RunsTimedOut, R.Violations.size());
  for (const Violation &V : R.Violations)
    std::printf("  [%s] %s: %s\n", checkKindName(V.Kind), V.Config.c_str(),
                V.Detail.c_str());
  if (!R.clean())
    return 1;
  if (R.ReferenceTimedOut) {
    std::printf("note: the td reference run exhausted its budget; "
                "reference-dependent checks were skipped\n");
    return 3;
  }
  return 0;
}

int campaign(const ToolOptions &O) {
  CampaignOptions CO;
  CO.FirstSeed = O.FirstSeed;
  CO.NumSeeds = O.Seeds;
  CO.ReduceViolations = !O.NoReduce;
  CO.OutDir = O.OutDir;
  CO.BudgetSeconds = O.BudgetSeconds;

  CampaignResult R = runCampaign(CO, oracleFor(O), std::cout);
  std::printf("[%s] %llu seed(s) tested, %zu with violations, %llu "
              "resource-exhausted%s\n",
              O.Domain.c_str(), static_cast<unsigned long long>(R.SeedsRun),
              R.BadSeeds.size(),
              static_cast<unsigned long long>(R.ExhaustedSeeds),
              R.StoppedOnBudget ? " (stopped on --budget)" : "");
  if (!R.clean())
    return 1;
  return R.ExhaustedSeeds != 0 ? 3 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "swift-difftest: %s\n%s", Err.c_str(),
                 usageText());
    return 2;
  }
  if (O.ShowHelp) {
    std::fputs(usageText(), stdout);
    return 0;
  }
  if (O.InjectBug)
    clients::test::injectDomainBug(O.Domain, true);
  try {
    failpoint::armFromEnv();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swift-difftest: %s\n", E.what());
    return 2;
  }

  if (!O.TraceOut.empty())
    obs::TraceRecorder::instance().start();
  if (!O.MetricsOut.empty())
    obs::MetricsRegistry::instance().enable();

  int Rc = O.ReplayPath.empty() ? campaign(O) : replay(O);

  // Advisory flushes: an observability write failure warns but never
  // changes the campaign verdict.
  if (!O.TraceOut.empty()) {
    obs::TraceRecorder::instance().stop();
    std::string FlushErr;
    if (!obs::TraceRecorder::instance().flushToFile(O.TraceOut, &FlushErr))
      std::fprintf(stderr, "swift-difftest: warning: trace write failed: "
                           "%s\n",
                   FlushErr.c_str());
  }
  if (!O.MetricsOut.empty()) {
    std::string FlushErr;
    if (!obs::MetricsRegistry::instance().writeSnapshot(O.MetricsOut,
                                                        nullptr, &FlushErr))
      std::fprintf(stderr, "swift-difftest: warning: metrics write "
                           "failed: %s\n",
                   FlushErr.c_str());
  }
  return Rc;
}
