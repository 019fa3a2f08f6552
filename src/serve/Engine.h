//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental summary engine behind swift-serve: keeps one swift-ir
/// program resident with a complete set of bottom-up relational summaries,
/// and on a procedure-replacement edit re-analyzes only the summaries the
/// edit can actually change, reusing everything else.
///
/// Invalidation is dependency-driven and oracle-aware. During every solve
/// the engine records summary->callee read edges via the solver's dep
/// recorder. Per procedure it also keeps
///
///  * a body hash over the procedure's canonical text block, and
///  * an *oracle fingerprint*: a hash over every whole-program oracle
///    answer the procedure's own analysis can consume — the may-alias
///    points-to set of each of its variables and the mod-field set of
///    each of its direct callees (both keyed by name, since symbol ids
///    shift across a re-parse).
///
/// After an edit the seeds are the procedures whose body hash *or*
/// fingerprint changed; the invalidated set is their upward closure over
/// the recorded dependency edges (edges within a call-graph SCC are
/// cyclic, so SCCs invalidate atomically). Every retained summary is
/// translated into the new program's symbol vocabulary through the
/// typestate text codec (typestate/TextCodec.h), installed into a fresh
/// solver, and only the procedures that are reachable from main and not
/// still valid are re-run. The fingerprint is what makes reuse sound: a
/// retained summary's every oracle query is guaranteed to answer
/// identically in the new program, so it equals what re-analysis would
/// recompute (inductively, callee-first).
///
/// Edits are transactional: a rejected edit (parse error, wrong name,
/// budget exhaustion under the per-request governor) leaves the engine
/// exactly as it was.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SERVE_ENGINE_H
#define SWIFT_SERVE_ENGINE_H

#include "serve/Journal.h"
#include "serve/Store.h"
#include "typestate/Runner.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace swift {
namespace serve {

struct EngineOptions {
  /// Typestate class under analysis; empty selects the program's first
  /// spec.
  std::string TrackedClass;
  /// Per-request solver budget (each solve gets a fresh governor with
  /// this step cap, so one pathological edit cannot wedge the server).
  uint64_t MaxStepsPerRequest = 200'000'000;
  /// Per-program-point relation cap handed to the relational solver.
  /// Exceeding it fails the request like budget exhaustion (it models
  /// running out of memory); batch callers that sweep many programs
  /// lower it to fail fast on relation blow-ups.
  uint64_t MaxRelsPerPoint = DefaultMaxRelsPerPoint;
  /// Warm-start store path; empty disables persistence. The initial
  /// solve auto-saves when set; so does every successful edit *unless* a
  /// journal is configured — with a journal, durability comes from the
  /// fsync'd append and the store is only rewritten by compact().
  std::string StorePath;
  /// Write-ahead journal path; empty disables journaling. When set,
  /// every accepted edit is framed, appended, and fsync'd before the
  /// engine commits it (so before any success response can be sent).
  std::string JournalPath;
  /// Default per-request wall-clock deadline in milliseconds; 0 means no
  /// deadline. Mapped onto the per-request governor budget, so a solve
  /// that overruns it fails like budget exhaustion — transactionally,
  /// with the result flagged Degraded.
  uint64_t RequestDeadlineMs = 0;
};

/// Outcome of solveInitial / applyEdit. On !Ok the engine state is
/// untouched.
struct EditResult {
  bool Ok = false;
  bool BudgetExhausted = false; ///< The per-request governor went Red.
  /// The request ran under a deadline and exhausted its budget: the
  /// engine's retained (pre-edit) verdicts are the sound partial answer
  /// the caller should serve. Implies BudgetExhausted && !Ok.
  bool Degraded = false;
  std::string Error;            ///< Empty iff Ok.
  std::string Warning;          ///< Non-fatal (e.g. store auto-save failed).
  size_t Invalidated = 0;       ///< Summaries dropped by the edit.
  size_t Reanalyzed = 0;        ///< Procedures the solver re-ran.
  size_t Reused = 0;            ///< Valid summaries carried across.
};

class ServeEngine {
public:
  /// Parses \p ProgramText and prepares (but does not run) the analysis.
  /// Throws std::runtime_error on parse errors or a missing typestate
  /// spec for the tracked class.
  ServeEngine(std::string_view ProgramText, EngineOptions Opts);

  /// Warm-start tag: distinguishes the store-path constructor from the
  /// program-text one (a std::string argument would otherwise bind to
  /// either).
  struct FromStore {
    std::string Path;
  };

  /// Warm start: loads a store file, adopts its program and every
  /// hash/fingerprint-verified summary. Call solveInitial() afterwards to
  /// fill any gaps (a verbatim warm start re-analyzes nothing). Throws on
  /// unreadable/corrupt stores.
  ServeEngine(const FromStore &Store, EngineOptions Opts);

  ~ServeEngine();

  /// Brings the summary set to completeness over the procedures reachable
  /// from main, reusing whatever valid summaries are present (all of
  /// them, on a warm start). Idempotent once solved.
  EditResult solveInitial();

  /// Replaces procedure \p ProcName's block with \p BodyText (a full
  /// `proc ...` block in swift-ir syntax), re-validates, invalidates, and
  /// incrementally re-solves. Transactional; see file header. When a
  /// journal is configured the accepted edit is appended + fsync'd
  /// *before* commit (append failure rejects the edit). \p DeadlineMs
  /// overrides EngineOptions::RequestDeadlineMs for this request only;
  /// 0 keeps the configured default.
  EditResult applyEdit(const std::string &ProcName,
                       std::string_view BodyText, uint64_t DeadlineMs = 0);

  /// True iff a write-ahead journal is configured.
  bool journaling() const { return Jrnl != nullptr; }

  /// Replays every valid journal record against the current state (a
  /// torn tail is truncated off the file first — see
  /// Journal::replayAndRepair). Replay is idempotent: a record whose
  /// body already matches the resident block seeds nothing and reuses
  /// everything. Replayed edits are not re-appended and never auto-save.
  /// Returns the first failure (budget exhaustion, corrupt record) or
  /// Ok; \p NumReplayed (optional) receives the number of records
  /// applied so far.
  EditResult replayJournal(size_t *NumReplayed = nullptr);

  /// Resets the journal to the fresh magic header (no-op without one).
  void resetJournal();

  /// Compaction: snapshot the current state into the configured store
  /// (atomically), then reset the journal — the crash contract is that
  /// store+journal recovery coincides with the pre-compaction state at
  /// every kill position. Throws on I/O failure (journal left intact if
  /// the store save fails).
  void compact();

  /// True once summaries cover every procedure reachable from main.
  bool solved() const { return Complete; }

  const Program &program() const { return *Prog; }
  /// Canonical program text (printProgramText form; edits splice here).
  const std::string &programText() const { return Text; }
  const std::string &trackedClass() const { return TrackedName; }

  /// Verdict for one allocation site. Untracked sites are Proved; tracked
  /// sites are Unresolved until the engine is solved.
  TsVerdict verdict(SiteId S) const;
  const std::set<SiteId> &errorSites() const { return Errors; }
  /// True iff \p S is an allocation site of the tracked class.
  bool trackedSite(SiteId S) const;

  size_t numProcs() const;
  size_t numSummaries() const;

  /// Persists the current state (only meaningful once solved). Throws on
  /// I/O failure; failpoint prefix "serve.save".
  void saveStore(const std::string &Path) const;
  void saveStore() const; ///< To EngineOptions::StorePath.

private:
  struct ProcState {
    uint64_t BodyHash = 0;
    uint64_t OracleFp = 0;
    bool Valid = false;
    TsSummary Sum;
    std::vector<ProcId> Deps; ///< Recorded callee reads, sorted unique.
  };

  /// Solves `Need` procedures on (NewProg, NewCtx) with the still-valid
  /// summaries pre-installed, then commits everything on success. Shared
  /// by solveInitial and applyEdit. \p DeadlineMs bounds the solve's
  /// wall clock (0 = none); on overrun the result is Degraded. \p Rec,
  /// when non-null, is journal-appended after a successful solve and
  /// *before* commit — durable-then-visible. \p AutoSave controls the
  /// store auto-save (suppressed under journaling and during replay).
  EditResult solveAndCommit(std::unique_ptr<Program> NewProg,
                            std::unique_ptr<TsContext> NewCtx,
                            std::string NewText,
                            std::vector<ProcState> NewPS,
                            size_t Invalidated, uint64_t DeadlineMs,
                            const Journal::Record *Rec, bool AutoSave);

  /// applyEdit minus the journal-append/auto-save policy decisions;
  /// replayJournal uses it with \p JournalAppend = false.
  EditResult applyEditImpl(const std::string &ProcName,
                           std::string_view BodyText, uint64_t DeadlineMs,
                           bool JournalAppend);

  void deriveErrors();
  uint64_t fingerprint(const TsContext &Ctx, ProcId P) const;

  EngineOptions Opt;
  std::unique_ptr<Journal> Jrnl; ///< Null unless Opt.JournalPath is set.
  std::string TrackedName;
  std::string Text; ///< Always the canonical printProgramText output.
  std::unique_ptr<Program> Prog;
  std::unique_ptr<TsContext> Ctx;
  std::vector<ProcState> PS; ///< Indexed by ProcId.
  std::set<SiteId> Errors;
  bool Complete = false;
};

//===----------------------------------------------------------------------===//
// Canonical-text block utilities (shared with EditGen)
//===----------------------------------------------------------------------===//

/// One `proc` block of canonical program text.
struct ProcBlock {
  std::string Name;
  size_t Begin = 0; ///< Offset of the `proc` header line.
  size_t End = 0;   ///< Offset one past the closing `}` line's newline.
};

/// Splits canonical (printProgramText) output into its procedure blocks,
/// in textual order. Non-proc regions (typestate blocks, the main line)
/// are not returned.
std::vector<ProcBlock> procBlocks(std::string_view CanonText);

} // namespace serve
} // namespace swift

#endif // SWIFT_SERVE_ENGINE_H
