//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sharded pure-bottom-up analysis without processes: the same planner,
/// codec, and exchange discipline as the multi-process coordinator, but
/// with every "worker" simulated sequentially in one process and segments
/// exchanged through an in-memory map (still through encodeSegment /
/// decodeSegment, so the codec path is exercised end to end). This is the
/// reference the difftest oracle uses to pin shard-count invariance —
/// K in {1, 2, 4} must produce identical error sites and verdicts — and
/// what the coordinator's final assembly over a populated disk spool
/// shares its derivation with.
///
/// Solver determinism makes this exact: every shard's summaries, and
/// therefore the assembled verdicts, are the same values runTypestateBu
/// computes, whatever K is.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SHARD_SHARDED_H
#define SWIFT_SHARD_SHARDED_H

#include "shard/Worker.h"
#include "typestate/Runner.h"

#include <cstdint>
#include <set>
#include <string>

namespace swift {
namespace shard {

struct ShardedOptions {
  unsigned NumShards = 1;
  RunLimits Limits; ///< Per simulated worker and per assembly.
  /// Shards forced to behave as permanently failed (their SCCs degrade).
  std::set<unsigned> DegradedShards;
};

/// Result of a sharded pure-BU run. The verdict contract matches the
/// governed runner's: a complete non-degraded run proves every tracked
/// site without a reported error; any degradation downgrades unproved
/// tracked sites whose resolution could have depended on a degraded
/// summary to Unresolved (never to an unsound Proved).
struct ShardedResult {
  bool Complete = false; ///< Every solve finished within its budget.
  bool Degraded = false; ///< Degraded summaries entered the assembly.
  std::set<SiteId> ErrorSites;
  std::set<TsError> ErrorPoints;
  std::set<TsAbstractState> MainExit;
  std::vector<TsVerdict> Verdicts; ///< One per allocation site.
  uint64_t Steps = 0;              ///< Summed across all solves.
};

/// Runs the full sharded pipeline in-process: plan K shards, simulate
/// each non-degraded worker in ascending shard order (publishing into an
/// in-memory spool), then assemble main's closure from the published
/// segments and derive verdicts. When \p Opts.DegradedShards is
/// non-empty, the per-shard simulation is skipped (workers publish
/// nothing under degradation) and the assembly solves everything itself
/// with the degraded SCCs' summaries soundly ignored. When a worker or
/// the assembly exhausts its step or wall limit, returns Complete = false
/// with empty results — like the ungoverned runners, a partial pure-BU
/// run reports only the failure.
ShardedResult runShardedInProcess(Program &Prog,
                                  const std::string &TrackedClass,
                                  const ShardedOptions &Opts);

/// The coordinator's final step: one solver over \p Prog targeting main's
/// SCC, adopting every valid segment in \p SpoolDir, solving whatever is
/// missing, and deriving pure-BU verdicts. \p DegradedShards marks shards
/// whose segments must not be trusted even if present (their SCCs
/// degrade). Exact under solver determinism regardless of how much of the
/// spool survived.
ShardedResult assembleFromSpool(Program &Prog, const TsContext &Ctx,
                                const ShardPlan &Plan,
                                const std::string &SpoolDir,
                                uint64_t ProgHash,
                                const std::set<unsigned> &DegradedShards,
                                uint64_t MaxSteps);

} // namespace shard
} // namespace swift

#endif // SWIFT_SHARD_SHARDED_H
