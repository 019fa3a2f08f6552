//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// swift-analyze — governed typestate analysis of one swift-ir program.
/// Runs TD or the SWIFT hybrid under the resource governor (step / wall /
/// memory limits with staged Green-Yellow-Red degradation) and prints
/// per-site verdicts, the budget's per-phase attribution, and degradation
/// telemetry. A budget-exhausted run can write a checkpoint
/// (--checkpoint-out) that a later invocation resumes (--resume-from)
/// with a larger budget; for TD mode the resumed results are
/// bit-identical to an uninterrupted run.
///
/// Exit code: 0 complete, 2 usage/input error, 3 partial (budget
/// exhausted; verdicts are a sound subset — Unresolved sites need a
/// bigger budget or a resume).
///
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"
#include "framework/Tabulation.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/CliParse.h"
#include "support/FailPoint.h"
#include "typestate/Context.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

using namespace swift;

namespace {

/// The live run's governor, published by runTypestateGoverned through
/// GovernedRunOptions::GovSlot for the duration of the run. The handler
/// below reads it; interruptFromSignal() is async-signal-safe (lock-free
/// atomics only, no allocation, no trace emission).
std::atomic<ResourceGovernor *> LiveGovernor{nullptr};

extern "C" void interruptHandler(int) {
  if (ResourceGovernor *Gov =
          LiveGovernor.load(std::memory_order_acquire))
    Gov->interruptFromSignal();
  // No governor published yet (parsing / setup): the run has produced
  // nothing to save, so the default-ish immediate exit is fine — but go
  // through _exit to skip non-signal-safe atexit work.
  else
    _Exit(130);
}

struct ToolOptions {
  std::string InputPath;
  std::string Domain = "typestate"; ///< "typestate" or a client domain.
  std::string Mode = "td";       ///< "td", "swift", or "bu" (clients only).
  uint64_t K = 5;
  uint64_t Theta = 2;
  std::optional<unsigned> Threads; ///< Pure BU's workers; unset = 1.
  uint64_t Steps = UINT64_MAX;
  double Seconds = 1e18;
  uint64_t MemMb = UINT64_MAX;
  std::string CheckpointOut;
  std::string ResumeFrom;
  std::string FailPoints;
  std::string TraceOut;
  std::string MetricsOut;
  bool ShowHelp = false;
};

/// The valid --domain values: the governed typestate analysis plus every
/// registered client domain, comma-separated for error messages.
std::string clientDomainList() {
  std::string S;
  for (const std::string &N : clients::clientDomainNames())
    S += (S.empty() ? "" : ", ") + N;
  return S;
}

std::string domainValueList() { return "typestate, " + clientDomainList(); }

const char *usageText() {
  return "usage: swift-analyze [options] <program.swiftir>\n"
         "  --domain=NAME       analysis domain: typestate (default,\n"
         "                      governed) or a client domain — taint,\n"
         "                      nullderef, reachdefs, interval\n"
         "                      (docs/MANUAL.md section 14)\n"
         "  --mode=td|swift|bu  analysis mode (default td; bu is valid\n"
         "                      only for client domains)\n"
         "  --k=N               SWIFT trigger threshold (default 5)\n"
         "  --theta=N           SWIFT pruning bound (default 2)\n"
         "  --threads=N         pure-BU wavefront worker threads (default\n"
         "                      1; only with a client domain and\n"
         "                      --mode=bu)\n"
         "  --steps=N           step budget (default unlimited)\n"
         "  --seconds=S         wall-clock budget (default unlimited)\n"
         "  --mem-mb=N          memory-estimate cap in MiB (default\n"
         "                      unlimited; typestate only)\n"
         "  --checkpoint-out=F  write a checkpoint to F if the budget is\n"
         "                      exhausted\n"
         "  --resume-from=F     resume from checkpoint F (the program and\n"
         "                      config come from the checkpoint; the\n"
         "                      positional input is not allowed)\n"
         "  --failpoints=SPEC   arm fault-injection failpoints (see\n"
         "                      docs/MANUAL.md section 8; also armed from\n"
         "                      the SWIFT_FAILPOINTS environment variable)\n"
         "  --trace-out=F       write a Chrome/Perfetto trace of the run\n"
         "                      to F (docs/MANUAL.md section 9)\n"
         "  --metrics-out=F     write a swift-metrics JSON snapshot to F\n"
         "  --help              this text\n"
         "exit: 0 complete, 2 usage/input error, 3 partial result\n";
}

bool parseArgs(int Argc, char **Argv, ToolOptions &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    std::string_view V;
    if (cli::matchValueFlag(A, "--mode=", V)) {
      if (V != "td" && V != "swift" && V != "bu") {
        Err = "invalid --mode value '" + std::string(V) +
              "' (valid values: td, swift, bu)";
        return false;
      }
      O.Mode = V;
    } else if (cli::matchValueFlag(A, "--domain=", V)) {
      if (V != "typestate" && !clients::isClientDomain(std::string(V))) {
        Err = "invalid --domain value '" + std::string(V) +
              "' (valid values: " + domainValueList() + ")";
        return false;
      }
      O.Domain = V;
    } else if (cli::matchValueFlag(A, "--k=", V)) {
      if (!cli::parseU64(V, O.K)) {
        Err = "invalid --k value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--theta=", V)) {
      if (!cli::parseU64(V, O.Theta) || O.Theta == 0) {
        Err = "invalid --theta value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--threads=", V)) {
      unsigned Threads = 1;
      if (!cli::parseUnsigned(V, Threads, 1, 1024)) {
        Err = "invalid --threads value '" + std::string(V) + "'";
        return false;
      }
      O.Threads = Threads;
    } else if (cli::matchValueFlag(A, "--steps=", V)) {
      if (!cli::parseU64(V, O.Steps) || O.Steps == 0) {
        Err = "invalid --steps value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--seconds=", V)) {
      if (!cli::parseNonNegDouble(V, O.Seconds)) {
        Err = "invalid --seconds value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--mem-mb=", V)) {
      // At most UINT64_MAX >> 20, so the cap in bytes cannot wrap.
      if (!cli::parseU64(V, O.MemMb, UINT64_MAX >> 20) || O.MemMb == 0) {
        Err = "invalid --mem-mb value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--checkpoint-out=", V)) {
      if (V.empty()) {
        Err = "--checkpoint-out needs a file path";
        return false;
      }
      O.CheckpointOut = V;
    } else if (cli::matchValueFlag(A, "--resume-from=", V)) {
      if (V.empty()) {
        Err = "--resume-from needs a file path";
        return false;
      }
      O.ResumeFrom = V;
    } else if (cli::matchValueFlag(A, "--failpoints=", V)) {
      if (V.empty()) {
        Err = "--failpoints needs a spec";
        return false;
      }
      O.FailPoints = V;
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
    } else if (A == "--help") {
      O.ShowHelp = true;
    } else if (!A.empty() && A[0] == '-') {
      Err = "unknown flag '" + std::string(A) + "'";
      return false;
    } else if (O.InputPath.empty()) {
      O.InputPath = A;
    } else {
      Err = "more than one input file";
      return false;
    }
  }
  if (O.ResumeFrom.empty() && O.InputPath.empty()) {
    Err = "no input file";
    return false;
  }
  if (!O.ResumeFrom.empty() && !O.InputPath.empty()) {
    Err = "--resume-from carries its own program; drop the input file";
    return false;
  }
  if (O.Domain == "typestate" && O.Mode == "bu") {
    Err = "--mode=bu is valid only with a client --domain (valid "
          "domains: " +
          clientDomainList() + ")";
    return false;
  }
  if (O.Domain != "typestate" &&
      (!O.ResumeFrom.empty() || !O.CheckpointOut.empty())) {
    Err = "checkpoint/resume supports only the typestate domain";
    return false;
  }
  if (O.Domain != "typestate" && O.MemMb != UINT64_MAX) {
    Err = "--mem-mb supports only the typestate domain (client domains "
          "run without a governor)";
    return false;
  }
  if (O.Threads && (O.Domain == "typestate" || O.Mode != "bu")) {
    Err = "--threads is valid only with a client --domain and --mode=bu "
          "(td and swift runs use one thread)";
    return false;
  }
  return true;
}

/// Flushes the trace and the metrics snapshot (with \p Stat, the run's
/// counters) when asked for. Advisory: a trace/metrics I/O failure warns
/// on stderr but never changes the analysis exit code.
void flushObservability(const ToolOptions &O, const Stats &Stat) {
  if (!O.TraceOut.empty()) {
    obs::TraceRecorder::instance().stop();
    std::string FlushErr;
    if (!obs::TraceRecorder::instance().flushToFile(O.TraceOut, &FlushErr))
      std::fprintf(stderr, "swift-analyze: warning: trace write failed: "
                           "%s\n",
                   FlushErr.c_str());
    else
      std::printf("trace written to %s (load at ui.perfetto.dev)\n",
                  O.TraceOut.c_str());
  }
  if (!O.MetricsOut.empty()) {
    std::string FlushErr;
    if (!obs::MetricsRegistry::instance().writeSnapshot(O.MetricsOut, &Stat,
                                                        &FlushErr))
      std::fprintf(stderr, "swift-analyze: warning: metrics write "
                           "failed: %s\n",
                   FlushErr.c_str());
    else
      std::printf("metrics written to %s\n", O.MetricsOut.c_str());
  }
}

/// The client-domain path: parse, run the registry, print normalized
/// results. No governor, checkpointing, or typestate spec involved;
/// failpoints, trace and metrics apply as on the typestate path.
int runClientDomainTool(const ToolOptions &O) {
  std::unique_ptr<Program> Prog;
  try {
    std::ifstream IS(O.InputPath);
    if (!IS) {
      std::fprintf(stderr, "swift-analyze: cannot open '%s'\n",
                   O.InputPath.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << IS.rdbuf();
    Prog = parseProgramText(Buf.str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swift-analyze: %s\n", E.what());
    return 2;
  }

  clients::DomainMode Mode = O.Mode == "td"      ? clients::DomainMode::Td
                             : O.Mode == "swift" ? clients::DomainMode::Swift
                                                 : clients::DomainMode::Bu;
  RunLimits Limits;
  Limits.MaxSteps = O.Steps;
  Limits.MaxSeconds = O.Seconds;
  clients::DomainRunResult R = clients::runClientDomain(
      O.Domain, *Prog, Mode, O.K, O.Theta, O.Threads.value_or(1), Limits);

  std::printf("%s/%s: %s in %.2fs, %llu steps\n", O.Domain.c_str(),
              O.Mode.c_str(), R.Timeout ? "PARTIAL" : "complete",
              R.Seconds, static_cast<unsigned long long>(R.Steps));
  std::printf("reports: %llu site(s)\n",
              static_cast<unsigned long long>(R.Reports.size()));
  for (const auto &[P, N] : R.Reports)
    std::printf("  report @%s:%u\n",
                Prog->symbols().text(Prog->proc(P).name()).c_str(), N);
  std::printf("main-exit facts: %llu\n",
              static_cast<unsigned long long>(R.ExitFacts.size()));
  for (const std::string &F : R.ExitFacts)
    std::printf("  %s\n", F.c_str());
  std::printf("summaries: %llu td, %llu bu relation(s)\n",
              static_cast<unsigned long long>(R.TdSummaries),
              static_cast<unsigned long long>(R.BuRelations));
  flushObservability(O, R.Stat);
  return R.Timeout ? 3 : 0;
}

uint64_t statOf(const Stats &S, const char *Name) { return S.get(Name); }

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "swift-analyze: %s\n%s", Err.c_str(), usageText());
    return 2;
  }
  if (O.ShowHelp) {
    std::fputs(usageText(), stdout);
    return 0;
  }

  try {
    failpoint::armFromEnv();
    if (!O.FailPoints.empty())
      failpoint::armSpec(O.FailPoints);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swift-analyze: %s\n%s", E.what(), usageText());
    return 2;
  }

  if (!O.TraceOut.empty())
    obs::TraceRecorder::instance().start();
  if (!O.MetricsOut.empty())
    obs::MetricsRegistry::instance().enable();

  if (O.Domain != "typestate")
    return runClientDomainTool(O);

  std::unique_ptr<Program> Prog;
  GovernedRunOptions GO;
  TsTabSnapshot Resume;
  std::string TrackedClass;

  try {
    if (!O.ResumeFrom.empty()) {
      ParsedCheckpoint PC = loadCheckpointFile(O.ResumeFrom);
      Prog = std::move(PC.Prog);
      GO.Config = PC.Checkpoint.Config;
      TrackedClass = PC.Checkpoint.TrackedClass;
      Resume = std::move(PC.Checkpoint.Snapshot);
      GO.ResumeFrom = &Resume;
      std::printf("resuming from %s (%llu steps consumed before the "
                  "checkpoint)\n",
                  O.ResumeFrom.c_str(),
                  static_cast<unsigned long long>(
                      PC.Checkpoint.StepsConsumed));
    } else {
      std::ifstream IS(O.InputPath);
      if (!IS) {
        std::fprintf(stderr, "swift-analyze: cannot open '%s'\n",
                     O.InputPath.c_str());
        return 2;
      }
      std::ostringstream Buf;
      Buf << IS.rdbuf();
      Prog = parseProgramText(Buf.str());
      GO.Config.K = O.Mode == "td" ? NoBuTrigger : O.K;
      GO.Config.Theta = O.Mode == "td" ? 1 : O.Theta;
    }
  } catch (const LoadError &E) {
    // Malformed *input*, not a usage error: name the failing file and the
    // typed kind, and do not print the usage text. Exit code stays 2.
    std::fprintf(stderr, "swift-analyze: malformed checkpoint '%s': %s\n",
                 O.ResumeFrom.c_str(), E.what());
    return 2;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swift-analyze: %s\n", E.what());
    return 2;
  }

  if (Prog->numSpecs() == 0) {
    std::fprintf(stderr, "swift-analyze: program declares no typestate "
                         "spec\n");
    return 2;
  }
  Symbol Tracked = TrackedClass.empty()
                       ? Prog->spec(0).name()
                       : Prog->symbols().intern(TrackedClass);
  if (!Prog->specFor(Tracked)) {
    std::fprintf(stderr, "swift-analyze: no spec for class '%s'\n",
                 TrackedClass.c_str());
    return 2;
  }

  GO.Limits.MaxSteps = O.Steps;
  GO.Limits.MaxSeconds = O.Seconds;
  GO.Limits.MaxMemoryBytes =
      O.MemMb == UINT64_MAX ? UINT64_MAX : O.MemMb * (1024 * 1024);

  TsContext Ctx(*Prog, Tracked);
  TsTabSnapshot Checkpoint;
  GO.CheckpointOut = &Checkpoint;

  // SIGINT/SIGTERM land on the governor's Red latch: the run winds down
  // through the normal budget-exhausted path — sound partial verdicts, a
  // checkpoint if requested, flushed trace/metrics, exit code 3 — instead
  // of dying with nothing.
  GO.GovSlot = &LiveGovernor;
  {
    struct sigaction SA = {};
    SA.sa_handler = interruptHandler;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGINT, &SA, nullptr);
    sigaction(SIGTERM, &SA, nullptr);
  }
  // Run-is-live marker for scripted drivers (the SIGINT CLI test waits
  // for it before signaling, so the signal always lands mid-run).
  std::fprintf(stderr, "analysis running\n");
  std::fflush(stderr);

  TsGovernedResult G = runTypestateGoverned(Ctx, GO);

  uint64_t Proved = 0, Errors = 0, Unresolved = 0;
  for (TsVerdict V : G.Verdicts) {
    if (V == TsVerdict::Proved)
      ++Proved;
    else if (V == TsVerdict::ErrorReported)
      ++Errors;
    else
      ++Unresolved;
  }

  std::printf("%s: %s in %.2fs, %llu steps\n",
              Prog->symbols().text(Tracked).c_str(),
              G.Partial ? "PARTIAL" : "complete", G.Run.Seconds,
              static_cast<unsigned long long>(G.Run.Steps));
  std::printf("verdicts: %llu proved, %llu error, %llu unresolved "
              "(of %llu sites)\n",
              static_cast<unsigned long long>(Proved),
              static_cast<unsigned long long>(Errors),
              static_cast<unsigned long long>(Unresolved),
              static_cast<unsigned long long>(G.Verdicts.size()));
  for (SiteId S : G.Run.ErrorSites)
    std::printf("  error @%u\n", S);
  std::printf("pressure: peak %s, peak memory estimate %llu bytes\n",
              pressureName(G.Peak),
              static_cast<unsigned long long>(G.PeakMemoryBytes));
  std::printf("budget attribution: td %llu, bu %llu steps\n",
              static_cast<unsigned long long>(
                  statOf(G.Run.Stat, "budget.td_steps")),
              static_cast<unsigned long long>(
                  statOf(G.Run.Stat, "budget.sync_bu_steps")));
  if (statOf(G.Run.Stat, "gov.bu_suppressed") ||
      statOf(G.Run.Stat, "gov.theta_shrunk") ||
      statOf(G.Run.Stat, "gov.shed_summaries"))
    std::printf("degradation: %llu bu runs suppressed, %llu theta "
                "shrinks, %llu summary caches shed\n",
                static_cast<unsigned long long>(
                    statOf(G.Run.Stat, "gov.bu_suppressed")),
                static_cast<unsigned long long>(
                    statOf(G.Run.Stat, "gov.theta_shrunk")),
                static_cast<unsigned long long>(
                    statOf(G.Run.Stat, "gov.shed_summaries")));

  if (G.Partial && !O.CheckpointOut.empty()) {
    try {
      TsCheckpoint C;
      C.Config = GO.Config;
      C.TrackedClass = Prog->symbols().text(Tracked);
      C.StepsConsumed = Checkpoint.StepsConsumed;
      C.Snapshot = std::move(Checkpoint);
      saveCheckpointFile(O.CheckpointOut, *Prog, C);
      std::printf("checkpoint written to %s (resume with "
                  "--resume-from=%s)\n",
                  O.CheckpointOut.c_str(), O.CheckpointOut.c_str());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "swift-analyze: %s\n", E.what());
      return 2;
    }
  }

  flushObservability(O, G.Run.Stat); // Last, and advisory.
  return G.Partial ? 3 : 0;
}
