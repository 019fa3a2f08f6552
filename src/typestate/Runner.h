//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// High-level entry points for the three interprocedural typestate
/// analyses compared in the paper's evaluation: TD (conventional
/// top-down), BU (conventional bottom-up, no pruning), and SWIFT (the
/// hybrid with thresholds k and theta). These are what the examples,
/// tests, and benchmark harness call.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_TYPESTATE_RUNNER_H
#define SWIFT_TYPESTATE_RUNNER_H

#include "framework/RunDriver.h"
#include "framework/TabSnapshot.h"
#include "govern/Governor.h"
#include "typestate/Context.h"
#include "typestate/TsAnalysis.h"

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace swift {

/// A reported typestate error: an object of the tracked class allocated at
/// Site may be in the error state at node Node of procedure Proc.
struct TsError {
  SiteId Site;
  ProcId Proc;
  NodeId Node;
  friend bool operator<(const TsError &A, const TsError &B) {
    if (A.Site != B.Site)
      return A.Site < B.Site;
    if (A.Proc != B.Proc)
      return A.Proc < B.Proc;
    return A.Node < B.Node;
  }
  friend bool operator==(const TsError &A, const TsError &B) {
    return A.Site == B.Site && A.Proc == B.Proc && A.Node == B.Node;
  }
};

/// A typestate run's result. The ungoverned runners keep one timeout
/// contract: a run that ran out of budget reports the timeout, its time,
/// steps and stats, and nothing else.
struct TsRunResult : RunCounts {
  std::vector<uint64_t> TdSummariesPerProc;
  std::set<SiteId> ErrorSites;          ///< Sites that may reach error.
  std::set<TsError> ErrorPoints;        ///< Where error tuples were seen.
  std::set<TsAbstractState> MainExit;   ///< States at main's exit.
};

/// Conventional top-down analysis (SWIFT with the trigger disabled).
TsRunResult runTypestateTd(const TsContext &Ctx, RunLimits Limits = {});

/// The SWIFT hybrid with thresholds \p K and \p Theta. \p Threads is the
/// worker count of each triggered bottom-up solve (SCC-DAG wavefront, the
/// paper's Section 7 parallelization; summaries are bit-identical for
/// every value).
TsRunResult runTypestateSwift(const TsContext &Ctx, uint64_t K,
                              uint64_t Theta, RunLimits Limits = {},
                              unsigned Threads = 1);

/// Conventional bottom-up analysis: whole-program relational analysis
/// without pruning, then one application of main's summary to the initial
/// state. \p Threads parallelizes over the call-graph SCC DAG.
TsRunResult runTypestateBu(const TsContext &Ctx, RunLimits Limits = {},
                           unsigned Threads = 1);

/// One SWIFT configuration, with every solver knob exposed (the positional
/// runTypestateSwift overload covers the common ones).
struct SwiftRunConfig {
  uint64_t K = 5;
  uint64_t Theta = 2;
  unsigned Threads = 1;
  /// Collect and serve the observation manifest (exact error reporting for
  /// summary-served callees). Disabling it is an ablation: value results
  /// stay coincident with TD, but error sites on paths that diverge inside
  /// served callees can be missed.
  bool ObservationManifest = true;
};

TsRunResult runTypestateSwift(const TsContext &Ctx,
                              const SwiftRunConfig &Cfg,
                              RunLimits Limits = {});

//===----------------------------------------------------------------------===//
// Governed (budget-limited, gracefully degrading) runs
//===----------------------------------------------------------------------===//

/// Per-allocation-site verdict of a governed run. The soundness contract
/// for partial results: a budget-exhausted run never claims Proved for a
/// tracked site (tracked sites without a reported error are Unresolved),
/// and every ErrorReported site of the partial run is ErrorReported in
/// the uninterrupted run too — partial verdicts are a sound subset.
enum class TsVerdict : uint8_t {
  Proved,        ///< No error reachable (complete runs / untracked sites).
  ErrorReported, ///< The site may reach the error state.
  Unresolved,    ///< Budget ran out before the site was resolved.
};

const char *tsVerdictName(TsVerdict V);

/// The per-site verdict rule of every typestate driver (governed runs,
/// sharded BU and the serve engine): an untracked site is Proved; a site
/// with a reported error is ErrorReported; any other tracked site is
/// Unresolved when the run is \p Partial (budget-exhausted or degraded)
/// and Proved otherwise.
TsVerdict tsVerdict(const TsContext &Ctx, SiteId S,
                    const std::set<SiteId> &ErrorSites, bool Partial);

/// tsVerdict for every allocation site, indexed by SiteId.
std::vector<TsVerdict> tsVerdicts(const TsContext &Ctx,
                                  const std::set<SiteId> &ErrorSites,
                                  bool Partial);

/// Pure BU's typestate read-out (forEachMainOutput): adds the site of
/// every error state that \p Main, main's summary, reaches from the
/// initial state to \p ErrorSites, at main's exit or, through the
/// observation manifest, at an internal point. When given, \p MainExit
/// receives main's exit states and \p ErrorPoints each error's report
/// point, main's exit node.
void readMainSummary(const TsContext &Ctx,
                     const RelationalSolver<TsAnalysis>::Summary &Main,
                     std::set<SiteId> &ErrorSites,
                     std::set<TsAbstractState> *MainExit = nullptr,
                     std::set<TsError> *ErrorPoints = nullptr);

/// A checkpoint of a budget-exhausted typestate tabulation; see
/// framework/TabSnapshot.h for exactness guarantees and
/// govern/Checkpoint.h for (de)serialization.
using TsTabSnapshot = TabSnapshot<TsAbstractState>;

/// Result of a governed run: the ordinary run result plus partiality,
/// degradation telemetry, and the per-site verdict vector (indexed by
/// SiteId). When Partial, Run.Timeout is also true but — unlike the
/// ungoverned runners, which zero everything on timeout — Run carries the
/// partially computed (sound-subset) summaries, error sites, and stats.
struct TsGovernedResult {
  TsRunResult Run;
  bool Partial = false;              ///< Budget exhausted before fixpoint.
  Pressure Peak = Pressure::Green;   ///< Highest pressure level reached.
  uint64_t PeakMemoryBytes = 0;      ///< Governor's peak memory estimate.
  std::vector<TsVerdict> Verdicts;   ///< One per allocation site.
};

/// Options for one governed run. ResumeFrom, when set, re-seeds the
/// solver from a checkpoint before running (the snapshot must come from
/// the same program and an equivalent config); CheckpointOut, when set,
/// receives a snapshot if the run exhausts its budget (it is left
/// untouched on completion).
struct GovernedRunOptions {
  SwiftRunConfig Config;
  GovernorLimits Limits;
  const TsTabSnapshot *ResumeFrom = nullptr;
  TsTabSnapshot *CheckpointOut = nullptr;
  /// When set, runTypestateGoverned publishes its internally constructed
  /// governor here for the duration of the run (and clears it before
  /// returning). A signal handler can then call interruptFromSignal() on
  /// the loaded pointer to wind the run down to the partial-but-sound
  /// exit path; both sides are lock-free atomics.
  std::atomic<ResourceGovernor *> *GovSlot = nullptr;
};

/// Runs the tabulation (TD when Config.K == NoBuTrigger, hybrid
/// otherwise) under a resource governor: staged degradation under
/// pressure, and a partial-but-sound result instead of nothing when the
/// budget runs out. A pure-TD run checkpointed at exhaustion and resumed
/// with a larger budget produces results bit-identical to an
/// uninterrupted run (the checkpoint-resume oracle enforces this).
TsGovernedResult runTypestateGoverned(const TsContext &Ctx,
                                      const GovernedRunOptions &Opts);

/// One named analysis run of the differential-testing config matrix.
struct TsConfigRun {
  std::string Name; ///< e.g. "td", "bu/t2", "swift/k1/th2/t4".
  enum class Mode { Td, Bu, Swift } Kind;
  SwiftRunConfig Swift;     ///< Swift runs only.
  unsigned BuThreads = 1;   ///< Bu runs only.
  TsRunResult Result;
};

/// Which slice of the config matrix runAllConfigs covers.
struct AllConfigsOptions {
  bool IncludeBu = true;    ///< Pure BU can blow up; callers may skip it.
  bool IncludeManifestOff = true;
  /// Thread counts exercised for BU and for a subset of SWIFT configs.
  std::vector<unsigned> ThreadCounts = {1, 2, 4};
};

/// Runs the whole analysis-mode matrix on one program: TD (the ground
/// truth of Theorem 3.1), pure BU at each thread count, and SWIFT at
/// several (k, theta) x thread-count x manifest settings.
/// The TD run is always first. This is the engine of the differential
/// oracle (src/difftest) and of ad-hoc cross-checking in tools.
std::vector<TsConfigRun> runAllConfigs(const TsContext &Ctx,
                                       RunLimits Limits = {},
                                       const AllConfigsOptions &Opts = {});

} // namespace swift

#endif // SWIFT_TYPESTATE_RUNNER_H
