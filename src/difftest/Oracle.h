//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle, one for every registered domain
/// (clients/Registry.h: typestate, taint, nullderef, reachdefs,
/// interval). It runs the domain's concrete witness (clients/Concrete.h)
/// as ground truth and one 10-row table of analysis modes on one program
/// — TD (the reference); pure BU at 1, 2 and 4 threads; SWIFT at (k,
/// theta) in {(0,1), (1,1), (2,1), (1,2), (3,2), (5,2)}, whose triggered
/// bottom-up solves run on one thread — then checks every relation the
/// paper guarantees:
///
///  * Soundness — every witness report site, and every main-exit fact of
///    a witness schedule that reached main's exit, is reported by every
///    complete run.
///  * TD coincidence (Theorem 3.1) — SWIFT's report sites and main-exit
///    facts equal TD's at every (k, theta).
///  * Report-point containment — a SWIFT report point is a TD report
///    point unless it sits at a call command (the observation manifest
///    reports findings inside summary-served callees at the serving
///    call).
///  * BU agreement — the unpruned bottom-up analysis, instantiated on the
///    initial state, matches TD's report sites and main-exit facts.
///  * Thread determinism — the pure BU rows, which differ only in worker
///    count, agree in report sites, report points, main-exit facts and
///    relation counts.
///
/// Typestate adds four contracts of the machinery only it has: governed
/// partial soundness, checkpoint-resume, incremental coincidence (serve)
/// and shard invariance. Violations name their configuration
/// `<domain>/<row>`, e.g. "taint/swift/k2/th1" or "typestate/bu/t4",
/// so a reproducer records which domain to replay it under.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_ORACLE_H
#define SWIFT_DIFFTEST_ORACLE_H

#include "framework/RunDriver.h"
#include "ir/Program.h"

#include <functional>
#include <string>
#include <vector>

namespace swift {
namespace difftest {

enum class CheckKind {
  Soundness,
  TdCoincidence,
  ErrorPointSubset,
  BuAgreement,
  ThreadDeterminism,
  /// Budget-limited governed runs return a sound subset: partial error
  /// sites are TD error sites, partial verdicts never claim Proved for a
  /// tracked-but-unresolved site, and a governed run that completes
  /// coincides with TD exactly.
  PartialSoundness,
  /// A run checkpointed at budget exhaustion and resumed (through a full
  /// checkpoint-text round trip) with an unlimited budget is bit-identical
  /// to the uninterrupted run — summary and relation counts, error sites,
  /// error points, and main-exit states.
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
  std::string Config; ///< `<domain>/<row>`, e.g. "typestate/swift/k1/th2".
  std::string Detail;
};

struct OracleOptions {
  /// Budget per analysis run. A run that times out is skipped by every
  /// check rather than reported (timeouts are resource facts, not bugs).
  RunLimits Limits{2'000'000, 10.0};
  /// Concrete witness schedules unioned into the ground truth.
  unsigned Schedules = 8;
  uint64_t InterpSeed = 1;
};

struct OracleResult {
  std::vector<Violation> Violations;
  unsigned RunsDone = 0;
  unsigned RunsTimedOut = 0;
  /// The TD reference run itself exhausted its budget: the checks needing
  /// a completed reference (coincidence, agreement, the typestate
  /// contracts) were skipped, not failed. Tools report such runs with a
  /// distinct resource-exhausted exit code.
  bool ReferenceTimedOut = false;
  bool clean() const { return Violations.empty(); }
};

/// Runs the table and all checks of \p Domain on \p Prog. Throws
/// std::runtime_error for an unregistered domain, and for typestate on a
/// program that declares no typestate spec.
OracleResult runOracle(const std::string &Domain, const Program &Prog,
                       const OracleOptions &Opts);

/// An oracle as the campaign, reducer and replay drivers see it: checks
/// one program, seeding its concrete schedules from \p InterpSeed.
using ProgramOracle =
    std::function<OracleResult(const Program &Prog, uint64_t InterpSeed)>;

/// runOracle for \p Domain with \p Opts; the driver's InterpSeed replaces
/// Opts.InterpSeed.
ProgramOracle programOracle(const std::string &Domain,
                            const OracleOptions &Opts);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_ORACLE_H
