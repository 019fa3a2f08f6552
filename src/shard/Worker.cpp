//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "shard/Worker.h"

#include "framework/RunDriver.h"
#include "ir/Dumper.h"
#include "obs/Trace.h"
#include "shard/Spool.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "typestate/TextCodec.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unistd.h>

using namespace swift;
using namespace swift::shard;

namespace {

/// All-or-nothing adoption of one verified segment: every member parses
/// or nothing is installed (a half-installed SCC would not be a summary
/// any run could have produced).
bool tryInstallSegment(Program &Prog, const TsContext &Ctx,
                       const std::vector<ProcId> &Members, const Segment &Seg,
                       RelationalSolver<TsAnalysis> &Solver) {
  if (Seg.Procs.size() != Members.size())
    return false;
  std::map<std::string, ProcId> Expect;
  for (ProcId P : Members)
    Expect.emplace(Prog.symbols().text(Prog.proc(P).name()), P);
  std::vector<std::pair<ProcId, TsSummary>> Parsed;
  try {
    for (const SegmentProc &SP : Seg.Procs) {
      auto It = Expect.find(SP.Name);
      if (It == Expect.end())
        return false; // wrong member set
      Parsed.emplace_back(It->second,
                          parseSummaryText(Prog, Ctx.spec().numStates(),
                                           SP.SummaryText));
      Expect.erase(It);
    }
  } catch (const std::exception &) {
    return false; // malformed summary text: a cache miss like any other
  }
  if (!Expect.empty())
    return false;
  for (auto &[P, S] : Parsed)
    Solver.installSummary(P, std::move(S));
  return true;
}

} // namespace

SolveSetup shard::prepareSolve(Program &Prog, const TsContext &Ctx,
                               const ShardPlan &Plan,
                               const SegmentSource &Source,
                               const std::set<unsigned> &DegradedShards,
                               const std::vector<size_t> &TargetSccs,
                               RelationalSolver<TsAnalysis> &Solver) {
  const CallGraph &CG = Ctx.callGraph();
  SolveSetup R;
  std::set<size_t> Visited;
  std::set<size_t> SolveSet;
  std::vector<size_t> Stack(TargetSccs.begin(), TargetSccs.end());
  while (!Stack.empty()) {
    size_t S = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(S).second)
      continue;
    const std::vector<ProcId> &Members = CG.sccMembers(S);
    if (DegradedShards.count(Plan.ShardOfScc[S])) {
      for (ProcId P : Members)
        Solver.degrade(P);
      R.DegradedProcs += Members.size();
      continue; // an ignore-all summary needs no callees
    }
    if (Source) {
      if (std::optional<Segment> Seg = Source(S)) {
        if (tryInstallSegment(Prog, Ctx, Members, *Seg, Solver)) {
          ++R.InstalledSccs;
          continue; // final summary adopted; callees not needed
        }
      }
    }
    SolveSet.insert(S);
    for (ProcId P : Members)
      for (ProcId Q : CG.callees(P))
        if (CG.scc(Q) != S)
          Stack.push_back(CG.scc(Q));
  }
  R.SolveSccs.assign(SolveSet.begin(), SolveSet.end());
  for (size_t S : R.SolveSccs)
    for (ProcId P : CG.sccMembers(S))
      R.SolveProcs.push_back(P);
  std::sort(R.SolveProcs.begin(), R.SolveProcs.end());
  return R;
}

SolveSetup shard::prepareSolve(Program &Prog, const TsContext &Ctx,
                               const ShardPlan &Plan,
                               const std::string &SpoolDir,
                               uint64_t ProgHash,
                               const std::set<unsigned> &DegradedShards,
                               const std::vector<size_t> &TargetSccs,
                               RelationalSolver<TsAnalysis> &Solver) {
  SegmentSource Source;
  if (!SpoolDir.empty())
    Source = [&SpoolDir, ProgHash](size_t S) {
      return tryLoadSegment(SpoolDir, S, ProgHash);
    };
  return prepareSolve(Prog, Ctx, Plan, Source, DegradedShards, TargetSccs,
                      Solver);
}

int shard::runWorker(const WorkerOptions &O, std::string *Err) {
  auto Fail = [Err](int Code, const std::string &What) {
    if (Err)
      *Err = What;
    return Code;
  };
  try {
    std::unique_ptr<Program> ProgPtr =
        parseProgramText(readWholeFile(O.ProgramPath));
    Program &Prog = *ProgPtr;
    if (O.TrackedClass.empty() && Prog.numSpecs() == 0)
      return Fail(WorkerExitUsage, "program declares no typestate spec");
    std::string TrackedName =
        O.TrackedClass.empty() ? Prog.symbols().text(Prog.spec(0).name())
                               : O.TrackedClass;
    Symbol Tracked = Prog.symbols().intern(TrackedName);
    if (!Prog.specFor(Tracked))
      return Fail(WorkerExitUsage,
                  "no typestate spec for class '" + TrackedName + "'");
    TsContext Ctx(Prog, Tracked);
    const CallGraph &CG = Ctx.callGraph();
    ShardPlan Plan = planShards(Prog, CG, O.NumShards);
    if (O.Shard >= Plan.NumShards)
      return Fail(WorkerExitUsage,
                  "shard " + std::to_string(O.Shard) + " out of range (plan has " +
                      std::to_string(Plan.NumShards) + ")");
    uint64_t Hash = programSpoolHash(Prog, TrackedName);

    obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
    if (!O.TraceOut.empty()) {
      Rec.setProcessName("swift-shard-worker " + std::to_string(O.Shard) +
                         " inc " + std::to_string(O.Incarnation));
      Rec.start();
    }
    if (!O.SpoolDir.empty())
      writeHeartbeat(O.SpoolDir, O.Shard, static_cast<uint64_t>(getpid()),
                     O.Incarnation, UINT64_MAX);

    Budget Bud(O.MaxSteps, 1e18);
    Stats Stat;
    RelationalSolver<TsAnalysis> Solver =
        makePureBuSolver<TsAnalysis>(Ctx, Bud, Stat);

    // Degraded inputs would leak into own summaries; the spool must only
    // ever hold clean-run bytes, so degraded-mode runs publish nothing.
    bool Publish = O.DegradedShards.empty() && !O.SpoolDir.empty();
    Solver.setSccObserver([&](const std::vector<ProcId> &Members) {
      size_t Scc = CG.scc(Members.front());
      if (Plan.ShardOfScc[Scc] != O.Shard)
        return; // recomputed on behalf of another shard: not ours to publish
      if (Publish) {
        if (SWIFT_FAILPOINT("worker.scc.solve"))
          throw std::runtime_error("injected worker fault (worker.scc.solve)");
        Segment Seg;
        Seg.ProgHash = Hash;
        Seg.Scc = Scc;
        for (ProcId P : Members)
          Seg.Procs.push_back(
              {Prog.symbols().text(Prog.proc(P).name()),
               summaryToText(Prog, Solver.summary(P))});
        saveSegment(O.SpoolDir, Seg);
      }
      if (!O.SpoolDir.empty())
        writeHeartbeat(O.SpoolDir, O.Shard, static_cast<uint64_t>(getpid()),
                       O.Incarnation, Scc);
    });

    SolveSetup Setup =
        prepareSolve(Prog, Ctx, Plan, O.SpoolDir, Hash, O.DegradedShards,
                     Plan.ShardSccs[O.Shard], Solver);
    bool Finished = Solver.run(Setup.SolveProcs);

    if (!O.TraceOut.empty()) {
      Rec.stop();
      Rec.flushToFile(O.TraceOut); // advisory; failure must not fail the run
    }
    return Finished ? WorkerExitOk : WorkerExitBudget;
  } catch (const std::exception &E) {
    return Fail(WorkerExitFault, E.what());
  }
}
