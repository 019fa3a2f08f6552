//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard-bu workload: the swift-shardrun coordinator
/// (shard::runCoordinator, which fork/execs swift-shard-worker) with 2
/// shards and 2 workers on one bu-batch program, each pass on a fresh
/// spool. It computes the same summaries as the in-process BU solve, so
/// the gap between the two is the cost of the shard layer.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Dumper.h"
#include "obs/Trace.h"
#include "shard/Coordinator.h"
#include "shard/Planner.h"
#include "support/AtomicFile.h"
#include "typestate/Runner.h"

#include <filesystem>
#include <memory>
#include <stdexcept>

using namespace swift;
using namespace swift::perfbench;
namespace fs = std::filesystem;

namespace {

constexpr unsigned Workers = 2;

std::string checkReport(const shard::ShardRunReport &Rep,
                        const Expected &Ref) {
  if (!Rep.Complete || Rep.UsedFallback)
    return "shardrun did not complete on its workers (fallback " +
           std::string(Rep.UsedFallback ? "used" : "not used") + ", " +
           std::to_string(Rep.FailedShards.size()) + " failed shards)";
  if (Rep.Restarts != 0 || Rep.HeartbeatKills != 0)
    return "shardrun restarted " + std::to_string(Rep.Restarts) +
           " workers (" + std::to_string(Rep.HeartbeatKills) +
           " heartbeat kills)";
  if (Rep.ErrorSites != Ref.ErrorSites)
    return "shardrun error sites differ from the TD reference";
  for (SiteId S = 0; S != Rep.Verdicts.size(); ++S)
    if ((Rep.Verdicts[S] == TsVerdict::ErrorReported) !=
            (Ref.ErrorSites.count(S) != 0) ||
        Rep.Verdicts[S] == TsVerdict::Unresolved)
      return "shardrun verdict of site " + std::to_string(S) +
             " differs from the TD reference";
  return "";
}

uint64_t spoolBytes(const std::string &Dir) {
  uint64_t N = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".spool")
      N += E.file_size();
  return N;
}

} // namespace

void perfbench::runShardBu(const Options &O,
                           const std::map<std::string, Expected> &E,
                           Report &R) {
  std::string Name = workloadInputs(O.Workload, O.Tiny).front();
  auto RefIt = E.find(Name);
  if (RefIt == E.end())
    throw std::runtime_error("no expected verdict for input '" + Name + "'");
  const Expected &Ref = RefIt->second;
  const std::string Text = inputText(inputSpec(Name));

  shard::CoordinatorOptions CO;
  CO.ProgramPath = O.WorkDir + "/shard.swiftir";
  CO.TrackedClass = trackedClass();
  CO.WorkerBin = O.WorkerBin;
  CO.NumShards = Workers;
  CO.MaxWorkers = Workers;
  writeFileAtomic(CO.ProgramPath, Text);

  Samples Setup, Plan, Run, RunTraced, RunAllocs;
  uint64_t FirstSpoolBytes = 0, Restarts = 0, Fallbacks = 0;
  SpanTable Spans;
  StopRule Stop(O, /*MinIters=*/O.Trace ? 4 : 5, /*TinyIters=*/2);
  for (size_t N = 0; Stop.more(N); ++N) {
    bool Traced = O.Trace && N % 2 == 1;
    if (Traced)
      traceOn();
    // The coordinator's own pre-launch work (parse, context, plan),
    // through the same public calls, timed apart from the run.
    {
      obs::TraceSpan Span("bench", "shard.setup");
      Clock::time_point T0 = Clock::now();
      std::unique_ptr<Program> Prog;
      {
        obs::TraceSpan Span("bench", "ir.parse");
        Prog = parseProgramText(Text);
      }
      std::unique_ptr<TsContext> Ctx;
      {
        obs::TraceSpan Span("bench", "alias.context");
        Ctx = std::make_unique<TsContext>(
            *Prog, Prog->symbols().intern(trackedClass()));
      }
      Clock::time_point T1 = Clock::now();
      {
        obs::TraceSpan Span("bench", "shard.plan");
        shard::planShards(*Prog, Ctx->callGraph(), Workers);
      }
      Plan.add(secondsSince(T1) * 1e3);
      Setup.add(secondsSince(T0));
    }

    CO.SpoolDir = O.WorkDir + "/spool-" + std::to_string(N);
    fs::create_directories(CO.SpoolDir);
    uint64_t A0 = allocCount();
    Clock::time_point T0 = Clock::now();
    shard::ShardRunReport Rep;
    {
      obs::TraceSpan Span("bench", "shard.run");
      Rep = shard::runCoordinator(CO);
    }
    double Wall = secondsSince(T0);
    RunAllocs.add(static_cast<double>(allocCount() - A0));
    R.op(checkReport(Rep, Ref));
    Restarts += Rep.Restarts;
    Fallbacks += Rep.UsedFallback ? 1 : 0;
    if (N == 0)
      FirstSpoolBytes = spoolBytes(CO.SpoolDir);
    fs::remove_all(CO.SpoolDir);
    if (Traced) {
      Spans.harvest();
      RunTraced.add(Wall);
    } else {
      Run.add(Wall);
    }
  }
  R.counter("shard.spool_bytes", FirstSpoolBytes);
  R.counter("shard.restarts", Restarts);
  R.counter("shard.fallback", Fallbacks);

  if (!O.Trace) {
    R.metric("setup_s", Setup.median(), "s", Setup.size());
    R.metric("verdict_ms", Run.median() * 1e3, "ms", Run.size());
    // The coordinator's peak plus the largest worker's (getrusage reports
    // the largest waited-for child).
    R.metric("peak_rss_mb", peakRssMb() + peakChildRssMb(), "MB", 1);
    return;
  }

  // The same program solved in process at the same worker count: the BU
  // layer's share of a shardrun, and the baseline of the shard layer.
  Samples InProc;
  SpanTable InProcSpans;
  {
    std::unique_ptr<Program> Prog = parseProgramText(Text);
    TsContext Ctx(*Prog, Prog->symbols().intern(trackedClass()));
    traceOn();
    for (int I = 0; I != 2; ++I) {
      Clock::time_point T0 = Clock::now();
      TsRunResult Bu = runTypestateBu(Ctx, {}, Workers);
      InProc.add(secondsSince(T0));
      R.op(Bu.Timeout || Bu.ErrorSites != Ref.ErrorSites ||
                   mainExitDigest(*Prog, Bu.MainExit) != Ref.ExitDigest
               ? "in-process BU differs from the TD reference"
               : "");
    }
    InProcSpans.harvest();
    measureRelationOps(*Prog, O.Seed, R);
  }
  double NT = static_cast<double>(RunTraced.size());
  R.metric("ir.parse_ms", Spans.self("ir.parse") / NT * 1e3, "ms",
           RunTraced.size());
  R.metric("alias.context_s", Spans.self("alias.context") / NT, "s",
           RunTraced.size());
  R.metric("shard.plan_ms", Plan.median(), "ms", Plan.size());
  R.metric("shard.spool_bytes", static_cast<double>(FirstSpoolBytes), "bytes",
           1);
  R.metric("shard.restarts", static_cast<double>(Restarts), "count",
           Setup.size());
  R.metric("shard.fallback", static_cast<double>(Fallbacks), "count",
           Setup.size());
  R.metric("shard.inproc_bu_s", InProc.median(), "s", InProc.size());
  R.metric("bu.time_s", InProc.median(), "s", InProc.size());
  R.metric("bu.share", InProc.median() / RunTraced.median(), "ratio",
           InProc.size());
  R.metric("bu.scc_solves",
           InProcSpans.count("bu.scc") / static_cast<double>(InProc.size()),
           "count", InProc.size());
  R.metric("alloc.count", RunAllocs.median(), "count", RunAllocs.size());
  R.metric("obs.trace_overhead",
           Run.median() > 0 ? RunTraced.median() / Run.median() : 0, "ratio",
           RunTraced.size());
  R.spans(Spans.table());
  R.spans(InProcSpans.table());
}
