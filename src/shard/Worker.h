//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard worker: the process body behind swift-shard-worker, plus the
/// spool-aware solve preparation the coordinator's assembly phase and the
/// in-process sharded runner share with it.
///
/// A worker owns the SCCs its shard was assigned by planShards and runs a
/// pure bottom-up relational solve over them (makePureBuSolver, the same
/// configuration as runTypestateBu, whose results are deterministic at
/// any thread count). Cross-shard callee summaries are
/// taken from the spool when a valid segment exists and recomputed
/// locally otherwise: the spool is a cache, and recomputation produces
/// byte-identical summaries, so a worker never blocks on another shard's
/// liveness for correctness — only for speed. Each own SCC completed is
/// published to the spool from the solver's SCC observer, so a crash
/// loses at most the in-flight SCC.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SHARD_WORKER_H
#define SWIFT_SHARD_WORKER_H

#include "framework/RelationalSolver.h"
#include "shard/Planner.h"
#include "shard/Spool.h"
#include "typestate/Context.h"
#include "typestate/TsAnalysis.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace swift {
namespace shard {

/// Worker exit codes. The coordinator keys restart policy off these:
/// Fault and kill (failpoint::KillExitCode) are restartable; Budget is
/// deterministic and marks the shard permanently failed; Usage is a
/// harness bug.
constexpr int WorkerExitOk = 0;
constexpr int WorkerExitFault = 1;
constexpr int WorkerExitUsage = 2;
constexpr int WorkerExitBudget = 3;

/// What prepareSolve decided for every SCC needed to produce final
/// summaries for the target SCCs.
struct SolveSetup {
  /// SCCs whose summaries must be computed here, ascending.
  std::vector<size_t> SolveSccs;
  /// Members of SolveSccs, sorted — the argument for RelationalSolver::run
  /// (call-closed modulo the summaries prepareSolve installed).
  std::vector<ProcId> SolveProcs;
  size_t InstalledSccs = 0; ///< Adopted from the spool.
  size_t DegradedProcs = 0; ///< Soundly gave up (owner shard degraded).
};

/// Where candidate segments come from: the disk spool (tryLoadSegment) in
/// the worker and coordinator, an in-memory map in the in-process runner.
/// The source only fetches; verification (member set, summary parse) is
/// prepareSolve's.
using SegmentSource = std::function<std::optional<Segment>(size_t Scc)>;

/// Walks the callee closure of \p TargetSccs and, for each SCC reached:
/// degrades its members when its owning shard is in \p DegradedShards,
/// adopts a segment from \p Source when one exists and survives
/// verification (exact member set, every summary parses — any defect is a
/// cache miss), and otherwise schedules it for solving, recursing into
/// its callees. Installed and degraded summaries go directly into
/// \p Solver; the returned SolveProcs satisfy run()'s weakened
/// call-closure precondition. \p Prog must be the program \p Ctx and
/// \p Solver were built over (non-const: summary parsing interns).
SolveSetup prepareSolve(Program &Prog, const TsContext &Ctx,
                        const ShardPlan &Plan, const SegmentSource &Source,
                        const std::set<unsigned> &DegradedShards,
                        const std::vector<size_t> &TargetSccs,
                        RelationalSolver<TsAnalysis> &Solver);

/// Convenience overload: \p Source = the disk spool at \p SpoolDir
/// (skipped entirely when empty), validated against \p ProgHash.
SolveSetup prepareSolve(Program &Prog, const TsContext &Ctx,
                        const ShardPlan &Plan, const std::string &SpoolDir,
                        uint64_t ProgHash,
                        const std::set<unsigned> &DegradedShards,
                        const std::vector<size_t> &TargetSccs,
                        RelationalSolver<TsAnalysis> &Solver);

struct WorkerOptions {
  std::string ProgramPath; ///< swift-ir v1 text file.
  std::string TrackedClass;
  unsigned Shard = 0;
  unsigned NumShards = 1;
  std::string SpoolDir;
  uint64_t MaxSteps = UINT64_MAX;
  /// Which incarnation of this shard this process is (0 first launch);
  /// recorded in the heartbeat and the trace process name.
  unsigned Incarnation = 0;
  /// Shards to treat as permanently failed: their SCCs are degraded
  /// instead of loaded or recomputed. Publishing is disabled when
  /// non-empty — degraded inputs change own summaries, and the spool must
  /// only ever hold the bytes an uninterrupted clean run would write.
  std::set<unsigned> DegradedShards;
  std::string TraceOut; ///< Per-worker Chrome trace JSON; empty = off.
};

/// Runs one shard to completion in this process. Returns a WorkerExit*
/// code; on Fault/Usage, \p Err (if non-null) receives the reason. Does
/// not install signal handlers or arm failpoints — the caller (tool main)
/// owns process-level setup.
int runWorker(const WorkerOptions &Opts, std::string *Err = nullptr);

} // namespace shard
} // namespace swift

#endif // SWIFT_SHARD_WORKER_H
