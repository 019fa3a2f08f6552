//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "shard/Sharded.h"

#include "serve/Store.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <map>

using namespace swift;
using namespace swift::shard;

namespace {

ShardedResult assembleCore(Program &Prog, const TsContext &Ctx,
                           const ShardPlan &Plan,
                           const SegmentSource &Source,
                           const std::set<unsigned> &DegradedShards,
                           RunLimits Limits) {
  ShardedResult R;
  Budget Bud(Limits.MaxSteps, Limits.MaxSeconds);
  Stats Stat;
  RelationalSolver<TsAnalysis> Solver =
      makePureBuSolver<TsAnalysis>(Ctx, Bud, Stat);
  std::vector<size_t> Target{Ctx.callGraph().scc(Prog.mainProc())};
  SolveSetup Setup = prepareSolve(Prog, Ctx, Plan, Source, DegradedShards,
                                  Target, Solver);
  R.Degraded = Setup.DegradedProcs != 0;
  bool Finished = Solver.run(Setup.SolveProcs);
  R.Steps = Bud.steps();
  if (!Finished)
    return R; // Complete stays false; results stay empty
  R.Complete = true;
  readMainSummary(Ctx, Solver.summary(Prog.mainProc()), R.ErrorSites,
                  &R.MainExit, &R.ErrorPoints);
  // A degraded run must not claim absence of errors it soundly gave up
  // looking for; reported errors stay exact (degraded summaries only ever
  // suppress relations, never invent them).
  R.Verdicts = tsVerdicts(Ctx, R.ErrorSites, R.Degraded);
  return R;
}

} // namespace

ShardedResult shard::assembleFromSpool(Program &Prog, const TsContext &Ctx,
                                       const ShardPlan &Plan,
                                       const std::string &SpoolDir,
                                       uint64_t ProgHash,
                                       const std::set<unsigned> &DegradedShards,
                                       uint64_t MaxSteps) {
  SegmentSource Source;
  if (!SpoolDir.empty())
    Source = [&SpoolDir, ProgHash](size_t S) {
      return tryLoadSegment(SpoolDir, S, ProgHash);
    };
  return assembleCore(Prog, Ctx, Plan, Source, DegradedShards,
                      RunLimits{MaxSteps});
}

ShardedResult shard::runShardedInProcess(Program &Prog,
                                         const std::string &TrackedClass,
                                         const ShardedOptions &Opts) {
  Symbol Tracked = Prog.symbols().intern(TrackedClass);
  TsContext Ctx(Prog, Tracked);
  const CallGraph &CG = Ctx.callGraph();
  ShardPlan Plan = planShards(Prog, CG, Opts.NumShards);
  uint64_t Hash = programSpoolHash(Prog, TrackedClass);

  std::map<size_t, std::string> SegBytes; // the in-memory "spool"
  SegmentSource Source = [&SegBytes, Hash](size_t S) -> std::optional<Segment> {
    auto It = SegBytes.find(S);
    if (It == SegBytes.end())
      return std::nullopt;
    try {
      Segment Seg = decodeSegment(It->second);
      if (Seg.ProgHash != Hash || Seg.Scc != S)
        return std::nullopt;
      return Seg;
    } catch (const std::exception &) {
      return std::nullopt;
    }
  };

  uint64_t Steps = 0;
  // Workers publish nothing under degradation, so with degraded shards
  // the simulation adds no segments — skip straight to the assembly,
  // which recomputes with the degraded SCCs soundly ignored.
  if (Opts.DegradedShards.empty()) {
    for (unsigned Sh = 0; Sh != Plan.NumShards; ++Sh) {
      Budget Bud(Opts.Limits.MaxSteps, Opts.Limits.MaxSeconds);
      Stats Stat;
      RelationalSolver<TsAnalysis> Solver =
          makePureBuSolver<TsAnalysis>(Ctx, Bud, Stat);
      Solver.setSccObserver([&](const std::vector<ProcId> &Members) {
        size_t Scc = CG.scc(Members.front());
        if (Plan.ShardOfScc[Scc] != Sh)
          return;
        Segment Seg;
        Seg.ProgHash = Hash;
        Seg.Scc = Scc;
        for (ProcId P : Members)
          Seg.Procs.push_back(
              {Prog.symbols().text(Prog.proc(P).name()),
               serve::summaryToText(Prog, Solver.summary(P))});
        SegBytes[Scc] = encodeSegment(Seg);
      });
      SolveSetup Setup = prepareSolve(Prog, Ctx, Plan, Source, {},
                                      Plan.ShardSccs[Sh], Solver);
      bool Finished = Solver.run(Setup.SolveProcs);
      Steps += Bud.steps();
      if (!Finished) {
        ShardedResult R;
        R.Steps = Steps;
        return R;
      }
    }
  }

  ShardedResult R = assembleCore(Prog, Ctx, Plan, Source,
                                 Opts.DegradedShards, Opts.Limits);
  R.Steps += Steps;
  return R;
}
