//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// swift-perfbench — the benchmark harness behind swiftbench/run.py. Runs
/// one workload for a wall-clock window, checks every verdict against the
/// recorded TD reference, and prints one JSON report line on stdout: the
/// end-to-end metrics (untraced) or the per-layer metrics (--trace=1),
/// operation accounting, traffic claims, and deterministic counters.
///
///   swift-perfbench --workload=W --seed=N --seconds=S --trace=0|1
///                   --work-dir=D --worker-bin=F --expected=F [--tiny]
///   swift-perfbench --record-expected=F
///
/// Exit: 0 every operation succeeded, 1 some operation failed (the report
/// is still printed), 2 usage or set-up error.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Dumper.h"
#include "obs/Json.h"
#include "support/AtomicFile.h"
#include "support/CliParse.h"
#include "typestate/Runner.h"

#include <csignal>
#include <cstdio>
#include <exception>
#include <set>

using namespace swift;
using namespace swift::perfbench;
namespace json = swift::obs::json;

namespace {

int usage(const std::string &Err) {
  std::fprintf(stderr,
               "swift-perfbench: %s\n"
               "usage: swift-perfbench --workload=W --seed=N --seconds=S "
               "--trace=0|1 --work-dir=D --worker-bin=F --expected=F "
               "[--tiny]\n"
               "       swift-perfbench --record-expected=F\n",
               Err.c_str());
  return 2;
}

/// Records the TD reference verdict of every input of every workload.
int recordExpected(const std::string &Path) {
  std::set<std::string> Names;
  for (const std::string &W : workloadNames())
    for (bool Tiny : {false, true})
      for (const std::string &N : workloadInputs(W, Tiny))
        Names.insert(N);
  json::Value Inputs;
  Inputs.K = json::Value::Kind::Object;
  for (const std::string &N : Names) {
    std::unique_ptr<Program> Prog =
        parseProgramText(inputText(inputSpec(N)));
    TsContext Ctx(*Prog, Prog->symbols().intern(trackedClass()));
    Clock::time_point T0 = Clock::now();
    TsRunResult Td = runTypestateTd(Ctx);
    if (Td.Timeout)
      throw std::runtime_error("TD reference timed out on " + N);
    json::Value Sites;
    Sites.K = json::Value::Kind::Array;
    for (SiteId S : Td.ErrorSites)
      Sites.Arr.push_back(json::Value::u64(S));
    json::Value E;
    E.K = json::Value::Kind::Object;
    E.Obj.emplace_back("error_sites", std::move(Sites));
    E.Obj.emplace_back("main_exit_digest",
                       json::Value::str(mainExitDigest(*Prog, Td.MainExit)));
    Inputs.Obj.emplace_back(N, std::move(E));
    std::fprintf(stderr, "%-12s td %.2fs, %zu error sites\n", N.c_str(),
                 secondsSince(T0), Td.ErrorSites.size());
  }
  json::Value Doc;
  Doc.K = json::Value::Kind::Object;
  Doc.Obj.emplace_back("format", json::Value::str("swift-perfbench-expected"));
  Doc.Obj.emplace_back("version", json::Value::u64(1));
  Doc.Obj.emplace_back("reference", json::Value::str("td"));
  Doc.Obj.emplace_back("inputs", std::move(Inputs));
  writeFileAtomic(Path, json::dump(Doc) + "\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string RecordPath;
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I], V;
    if (cli::matchValueFlag(A, "--workload=", V)) {
      O.Workload = V;
    } else if (cli::matchValueFlag(A, "--seed=", V)) {
      if (!cli::parseU64(V, O.Seed))
        return usage("invalid --seed");
    } else if (cli::matchValueFlag(A, "--seconds=", V)) {
      if (!cli::parseNonNegDouble(V, O.Seconds))
        return usage("invalid --seconds");
    } else if (cli::matchValueFlag(A, "--trace=", V)) {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (cli::matchValueFlag(A, "--work-dir=", V)) {
      O.WorkDir = V;
    } else if (cli::matchValueFlag(A, "--worker-bin=", V)) {
      O.WorkerBin = V;
    } else if (cli::matchValueFlag(A, "--expected=", V)) {
      O.ExpectedPath = V;
    } else if (cli::matchValueFlag(A, "--record-expected=", V)) {
      RecordPath = V;
    } else if (A == "--tiny") {
      O.Tiny = true;
    } else {
      return usage("unknown argument '" + std::string(A) + "'");
    }
  }
  // The serve client reads the server's pipe; a closed pipe must surface
  // as an error, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    if (!RecordPath.empty())
      return recordExpected(RecordPath);
    if (O.WorkDir.empty() || O.ExpectedPath.empty())
      return usage("--work-dir and --expected are required");
    std::map<std::string, Expected> E = loadExpected(O.ExpectedPath);
    Report R;
    if (O.Workload == "swift-batch")
      runSwiftBatch(O, E, R);
    else if (O.Workload == "bu-batch")
      runBuBatch(O, E, R);
    else if (O.Workload == "serve-edits")
      runServeEdits(O, E, R);
    else if (O.Workload == "shard-bu") {
      if (O.WorkerBin.empty())
        return usage("shard-bu needs --worker-bin");
      runShardBu(O, E, R);
    } else {
      return usage("unknown workload '" + O.Workload + "'");
    }
    std::printf("%s\n", R.json(O).c_str());
    std::fflush(stdout);
    return R.failed() == 0 ? 0 : 1;
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "swift-perfbench: %s\n", Ex.what());
    return 2;
  }
}
