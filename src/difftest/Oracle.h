//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle: runs the concrete interpreter as
/// ground truth and the whole analysis-mode matrix (TD, pure BU, SWIFT at
/// several (k, theta), thread counts, manifest on/off) on
/// one program, then checks every relation the paper guarantees:
///
///  * Soundness — every allocation site that concretely reaches the error
///    state is reported by every complete manifest-on run.
///  * TD coincidence (Theorem 3.1) — SWIFT's error sites and main-exit
///    states equal TD's at every (k, theta, threads).
///  * Error-point containment — a SWIFT error point is a TD error point
///    unless it sits at a call command (the observation manifest reports
///    errors inside summary-served callees at the serving call site).
///  * BU agreement — the unpruned bottom-up analysis, instantiated on the
///    initial state, matches TD's error sites and main-exit states.
///  * Manifest-off ablation — value results still coincide; error sites
///    may only under-approximate TD's, never over-approximate.
///  * Thread determinism — runs differing only in worker count are
///    identical in every result field.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_ORACLE_H
#define SWIFT_DIFFTEST_ORACLE_H

#include "ir/Program.h"
#include "typestate/Runner.h"

#include <functional>
#include <set>
#include <string>
#include <vector>

namespace swift {
namespace difftest {

enum class CheckKind {
  Soundness,
  TdCoincidence,
  ErrorPointSubset,
  BuAgreement,
  ManifestOff,
  ThreadDeterminism,
  /// Budget-limited governed runs return a sound subset: partial error
  /// sites are TD error sites, partial verdicts never claim Proved for a
  /// tracked-but-unresolved site, and a governed run that completes
  /// coincides with TD exactly.
  PartialSoundness,
  /// A run checkpointed at budget exhaustion and resumed (through a full
  /// checkpoint-text round trip) with an unlimited budget is bit-identical
  /// to the uninterrupted run — summaries, relations, error sites, error
  /// points, and main-exit states.
  CheckpointResume,
  /// The incremental serve engine, replaying a deterministic sequence of
  /// procedure-replacement edits with dependency-driven summary reuse,
  /// ends with exactly the error sites and per-site verdicts of a
  /// from-scratch solve of the final program (and its initial solve
  /// coincides with the TD reference).
  IncrementalCoincidence,
  /// The sharded pure-BU pipeline is shard-count invariant: K in
  /// {1, 2, 4} produce identical error sites, error points, main-exit
  /// states, and verdicts, all coinciding with the TD reference's error
  /// sites; and a run with a shard forced into permanent failure stays
  /// sound — its errors are TD errors and no tracked site whose
  /// resolution touched a degraded summary is claimed Proved.
  ShardInvariance,
};

const char *checkKindName(CheckKind K);

/// One oracle failure: which guarantee broke, on which configuration.
struct Violation {
  CheckKind Kind;
  std::string Config; ///< runAllConfigs name, e.g. "swift/k1/th2/t4".
  std::string Detail;
};

struct OracleOptions {
  /// Budget per analysis run. A run that times out is skipped by every
  /// check rather than reported (timeouts are resource facts, not bugs).
  RunLimits Limits{2'000'000, 10.0};
  /// Concrete interpreter schedules unioned into the ground truth.
  unsigned Schedules = 8;
  uint64_t InterpSeed = 1;
  uint64_t InterpMaxSteps = 20'000;
  AllConfigsOptions Configs;
  /// Typestate class under verification; empty selects the program's
  /// first spec (fuzz programs declare exactly one, "File").
  std::string TrackedClass;
  /// Run the governed partial-soundness checks (budget-limited runs at
  /// fractions of the reference run's step count).
  bool CheckPartial = true;
  /// Run the checkpoint/resume bit-identity check.
  bool CheckCheckpoint = true;
  /// Run the incremental-vs-from-scratch edit-replay check.
  bool CheckIncremental = true;
  /// Edits replayed per program by the incremental check.
  unsigned IncrementalEdits = 3;
  /// Run the shard-count-invariance and forced-degradation checks.
  bool CheckShard = true;
};

struct OracleResult {
  std::vector<Violation> Violations;
  std::set<SiteId> ConcreteErrors;
  unsigned RunsDone = 0;
  unsigned RunsTimedOut = 0;
  /// The TD reference run itself exhausted its budget: the checks needing
  /// a completed reference (coincidence, partial-soundness,
  /// checkpoint-resume) were skipped, not failed. Tools report such runs
  /// with a distinct resource-exhausted exit code.
  bool ReferenceTimedOut = false;
  bool clean() const { return Violations.empty(); }
};

/// Runs the full matrix and all checks on \p Prog. Throws
/// std::runtime_error if the program declares no typestate spec.
OracleResult runOracle(const Program &Prog, const OracleOptions &Opts);

/// An oracle as the campaign, reducer and replay drivers see it: checks
/// one program, seeding its concrete schedules from \p InterpSeed.
using ProgramOracle =
    std::function<OracleResult(const Program &Prog, uint64_t InterpSeed)>;

/// The typestate oracle, runOracle with \p Opts; the driver's InterpSeed
/// replaces Opts.InterpSeed.
ProgramOracle typestateOracle(const OracleOptions &Opts);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_ORACLE_H
