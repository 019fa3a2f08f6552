//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "difftest/Oracle.h"

#include "clients/Concrete.h"
#include "clients/Registry.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "obs/Metrics.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "shard/Sharded.h"
#include "typestate/Context.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

using namespace swift;
using namespace swift::difftest;
using clients::DomainMode;
using clients::DomainRunResult;
using clients::Point;

const char *swift::difftest::checkKindName(CheckKind K) {
  switch (K) {
  case CheckKind::Soundness:
    return "soundness";
  case CheckKind::TdCoincidence:
    return "td-coincidence";
  case CheckKind::ErrorPointSubset:
    return "error-point-subset";
  case CheckKind::BuAgreement:
    return "bu-agreement";
  case CheckKind::ThreadDeterminism:
    return "thread-determinism";
  case CheckKind::PartialSoundness:
    return "partial-soundness";
  case CheckKind::CheckpointResume:
    return "checkpoint-resume";
  case CheckKind::IncrementalCoincidence:
    return "incremental-coincidence";
  case CheckKind::ShardInvariance:
    return "shard-invariance";
  }
  return "?";
}

namespace {

/// One row of the oracle's table. Threads is the worker count of a pure
/// BU row; TD and SWIFT rows run on one thread.
struct Row {
  DomainMode Mode;
  uint64_t K = 0;
  uint64_t Theta = 1;
  unsigned Threads = 1;
};

/// The table every domain runs, TD (the reference) first. Pure BU at 1, 2
/// and 4 wavefront workers, whose results must be bit-identical. SWIFT at
/// six (k, theta): the trigger fires at different times, so these cover
/// very different mixes of analyzed and served calls.
const Row Table[] = {
    {DomainMode::Td},
    {DomainMode::Bu, 0, 1, 1},
    {DomainMode::Bu, 0, 1, 2},
    {DomainMode::Bu, 0, 1, 4},
    {DomainMode::Swift, 0, 1},
    {DomainMode::Swift, 1, 1},
    {DomainMode::Swift, 2, 1},
    {DomainMode::Swift, 1, 2},
    {DomainMode::Swift, 3, 2},
    {DomainMode::Swift, 5, 2},
};

std::string rowName(const Row &R) {
  if (R.Mode == DomainMode::Td)
    return "td";
  if (R.Mode == DomainMode::Bu)
    return "bu/t" + std::to_string(R.Threads);
  return "swift/k" + std::to_string(R.K) + "/th" + std::to_string(R.Theta);
}

/// One finished row.
struct Run {
  const Row *Rw;
  DomainRunResult Result;
};

std::string siteSetStr(const std::set<SiteId> &S) {
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (SiteId Id : S) {
    OS << (First ? "" : " ") << "@" << Id;
    First = false;
  }
  OS << "}";
  return OS.str();
}

/// A \ B.
template <typename T>
std::set<T> setMinus(const std::set<T> &A, const std::set<T> &B) {
  std::set<T> Out;
  for (const T &X : A)
    if (!B.count(X))
      Out.insert(X);
  return Out;
}

class OracleRun {
public:
  OracleRun(const std::string &Domain, const Program &Prog,
            const OracleOptions &Opts)
      : Domain(Domain), Prog(Prog), Opts(Opts) {}

  OracleResult run();

private:
  void addViolation(CheckKind Kind, const std::string &Config,
                    std::string Detail) {
    Res.Violations.push_back(
        Violation{Kind, Domain + "/" + Config, std::move(Detail)});
  }

  std::string pointStr(const Point &P) const {
    return Prog.symbols().text(Prog.proc(P.first).name()) + ":" +
           std::to_string(P.second);
  }
  /// The first few elements of \p S, rendered, for readable diffs.
  std::string str(const std::set<Point> &S) const {
    return render(S, [this](const Point &P) { return pointStr(P); });
  }
  static std::string str(const std::set<std::string> &S) {
    return render(S, [](const std::string &F) { return F; });
  }
  template <typename T, typename StrFn>
  static std::string render(const std::set<T> &S, StrFn Str) {
    std::string Out = "{";
    size_t I = 0;
    for (const T &X : S) {
      if (I == 4) {
        Out += " ...";
        break;
      }
      Out += (I++ ? " " : "") + Str(X);
    }
    return Out + "}";
  }
  /// "<what> diverge from td: missing={...} extra={...}".
  template <typename T>
  std::string divergence(const char *What, const std::set<T> &Got,
                         const std::set<T> &Td) const {
    return std::string(What) + " diverge from td: missing=" +
           str(setMinus(Td, Got)) + " extra=" + str(setMinus(Got, Td));
  }

  void checkSoundness(const std::string &Name, const DomainRunResult &R);
  void checkAgainstTd(const Row &Rw, const std::string &Name,
                      const DomainRunResult &R, const DomainRunResult &Td);
  void checkThreadDeterminism(const std::vector<Run> &Runs);
  void checkPartialSoundness(const TsContext &Ctx, const DomainRunResult &Td,
                             const std::set<SiteId> &TdSites);
  void checkCheckpointResume(const TsContext &Ctx, const DomainRunResult &Td,
                             const std::set<SiteId> &TdSites);
  void checkIncremental(const std::set<SiteId> &TdSites);
  void checkShardInvariance(const TsContext &Ctx,
                            const std::set<SiteId> &TdSites);

  const std::string &Domain;
  const Program &Prog;
  const OracleOptions &Opts;
  OracleResult Res;
  /// Ground truth: what the witness schedules observed.
  std::set<Point> WitnessReports;
  std::set<std::string> WitnessExitFacts;
};

void OracleRun::checkSoundness(const std::string &Name,
                               const DomainRunResult &R) {
  std::set<Point> Missed = setMinus(WitnessReports, R.Reports);
  if (!Missed.empty())
    addViolation(CheckKind::Soundness, Name,
                 "concrete reports not reported: " + str(Missed) +
                     "; reported " + str(R.Reports));
  std::set<std::string> MissedFacts = setMinus(WitnessExitFacts, R.ExitFacts);
  if (!MissedFacts.empty())
    addViolation(CheckKind::Soundness, Name,
                 "concrete main-exit facts not reported: " +
                     str(MissedFacts));
}

void OracleRun::checkAgainstTd(const Row &Rw, const std::string &Name,
                               const DomainRunResult &R,
                               const DomainRunResult &Td) {
  if (Rw.Mode == DomainMode::Bu) {
    if (R.Reports != Td.Reports)
      addViolation(CheckKind::BuAgreement, Name,
                   divergence("report sites", R.Reports, Td.Reports));
    if (R.ExitFacts != Td.ExitFacts)
      addViolation(CheckKind::BuAgreement, Name,
                   divergence("main-exit facts", R.ExitFacts, Td.ExitFacts));
    return;
  }

  // Theorem 3.1: exact coincidence of report sites and main-exit facts.
  if (R.Reports != Td.Reports)
    addViolation(CheckKind::TdCoincidence, Name,
                 divergence("report sites", R.Reports, Td.Reports));
  if (R.ExitFacts != Td.ExitFacts)
    addViolation(CheckKind::TdCoincidence, Name,
                 divergence("main-exit facts", R.ExitFacts, Td.ExitFacts));

  // Report points: SWIFT may move a point to the serving call, but a
  // point at a non-call node must be one TD saw too.
  for (const auto &[Site, At] : R.ReportPoints) {
    if (Td.ReportPoints.count({Site, At}) ||
        Prog.proc(At.first).node(At.second).Cmd.Kind == CmdKind::Call)
      continue;
    addViolation(CheckKind::ErrorPointSubset, Name,
                 "report of " + pointStr(Site) + " at " + pointStr(At) +
                     " is at a non-call node and td never saw it");
  }
}

/// The pure BU rows differ only in worker count, so each must agree bit
/// for bit with the first of them that finished.
void OracleRun::checkThreadDeterminism(const std::vector<Run> &Runs) {
  const Run *Base = nullptr;
  for (const Run &R : Runs) {
    if (R.Result.Timeout || R.Rw->Mode != DomainMode::Bu)
      continue;
    if (!Base) {
      Base = &R;
      continue;
    }
    const DomainRunResult &A = Base->Result, &B = R.Result;
    auto Mismatch = [&](const char *What) {
      addViolation(CheckKind::ThreadDeterminism, rowName(*R.Rw),
                   std::string(What) + " differ from " + Domain + "/" +
                       rowName(*Base->Rw));
    };
    if (A.Reports != B.Reports)
      Mismatch("report sites");
    if (A.ReportPoints != B.ReportPoints)
      Mismatch("report points");
    if (A.ExitFacts != B.ExitFacts)
      Mismatch("main-exit facts");
    if (A.BuRelations != B.BuRelations)
      Mismatch("bu-relation counts");
  }
}

/// Budget-limited governed runs at fractions of the reference run's step
/// count must return sound subsets: partial error sites are TD error
/// sites, partial verdicts never claim Proved for an unresolved tracked
/// site, and a governed run that happens to complete coincides with TD.
void OracleRun::checkPartialSoundness(const TsContext &Ctx,
                                      const DomainRunResult &Td,
                                      const std::set<SiteId> &TdSites) {
  struct Probe {
    const char *Name;
    SwiftRunConfig Config;
    uint64_t MaxSteps;
  };
  uint64_t Quarter = std::max<uint64_t>(20, Td.Steps / 4);
  uint64_t Half = std::max<uint64_t>(20, Td.Steps / 2);
  SwiftRunConfig TdCfg;
  TdCfg.K = NoBuTrigger;
  TdCfg.Theta = 1;
  SwiftRunConfig HybridCfg;
  HybridCfg.K = 1;
  HybridCfg.Theta = 1;
  const Probe Probes[] = {
      {"governed-td/quarter", TdCfg, Quarter},
      {"governed-td/half", TdCfg, Half},
      {"governed-swift/half", HybridCfg, Half},
  };

  for (const Probe &P : Probes) {
    GovernedRunOptions GO;
    GO.Config = P.Config;
    GO.Limits.MaxSteps = P.MaxSteps;
    TsGovernedResult G = runTypestateGoverned(Ctx, GO);

    // Partial or complete, reported error sites must be TD error sites.
    std::set<SiteId> Extra = setMinus(G.Run.ErrorSites, TdSites);
    if (!Extra.empty())
      addViolation(CheckKind::PartialSoundness, P.Name,
                   "partial run reports error sites td does not: " +
                       siteSetStr(Extra));

    for (uint32_t S = 0; S != G.Verdicts.size(); ++S) {
      TsVerdict V = G.Verdicts[S];
      if (V == TsVerdict::ErrorReported && !TdSites.count(S))
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "verdict for @" + std::to_string(S) +
                         " is error but td never reports it");
      if (V == TsVerdict::Proved && G.Partial && Ctx.isTrackedSite(S))
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "partial run claims Proved for tracked site @" +
                         std::to_string(S));
      if (V == TsVerdict::Proved && !G.Partial && TdSites.count(S))
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "complete governed run claims Proved for @" +
                         std::to_string(S) + " but td reports it");
    }

    if (!G.Partial) {
      // A completed governed run is an ordinary run; full coincidence.
      if (G.Run.ErrorSites != TdSites)
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "complete governed run's error sites " +
                         siteSetStr(G.Run.ErrorSites) + " != td " +
                         siteSetStr(TdSites));
      std::set<std::string> Exit =
          clients::typestateResult(Prog, G.Run).ExitFacts;
      if (Exit != Td.ExitFacts)
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "complete governed run's " +
                         divergence("main-exit states", Exit, Td.ExitFacts));
    }
  }
}

/// Exhaust a governed TD run at half the reference step count, serialize
/// the checkpoint, parse it back, resume with an unlimited budget, and
/// demand bit-identity with the uninterrupted reference in every result
/// field.
void OracleRun::checkCheckpointResume(const TsContext &Ctx,
                                      const DomainRunResult &Td,
                                      const std::set<SiteId> &TdSites) {
  const char *Name = "checkpoint-resume/td-half";
  SwiftRunConfig TdCfg;
  TdCfg.K = NoBuTrigger;
  TdCfg.Theta = 1;

  TsTabSnapshot Snap;
  GovernedRunOptions GO;
  GO.Config = TdCfg;
  GO.Limits.MaxSteps = std::max<uint64_t>(20, Td.Steps / 2);
  GO.CheckpointOut = &Snap;
  TsGovernedResult G = runTypestateGoverned(Ctx, GO);

  if (!G.Partial) {
    // Tiny program: nothing was checkpointed, the run just completed —
    // the coincidence half of the contract still applies.
    if (G.Run.ErrorSites != TdSites ||
        clients::typestateResult(Prog, G.Run).ExitFacts != Td.ExitFacts)
      addViolation(CheckKind::CheckpointResume, Name,
                   "governed run completed under the limited budget but "
                   "does not coincide with td");
    return;
  }

  // Serialize, parse, and resume on the *parsed* program — the round trip
  // itself is under test.
  TsCheckpoint C;
  C.Config = TdCfg;
  C.TrackedClass = Prog.symbols().text(Ctx.spec().name());
  C.StepsConsumed = Snap.StepsConsumed;
  C.Snapshot = std::move(Snap);

  ParsedCheckpoint PC;
  try {
    PC = parseCheckpointText(checkpointToText(Prog, C));
  } catch (const std::exception &E) {
    addViolation(CheckKind::CheckpointResume, Name,
                 std::string("checkpoint text round trip failed: ") +
                     E.what());
    return;
  }

  TsContext ResumedCtx(*PC.Prog, PC.Prog->symbols().intern(
                                     PC.Checkpoint.TrackedClass));
  GovernedRunOptions RO;
  RO.Config = PC.Checkpoint.Config;
  RO.ResumeFrom = &PC.Checkpoint.Snapshot;
  TsGovernedResult R = runTypestateGoverned(ResumedCtx, RO);

  if (R.Partial) {
    addViolation(CheckKind::CheckpointResume, Name,
                 "resumed run with unlimited budget did not complete");
    return;
  }
  // The resumed run lives in the re-parsed program's symbol-id space:
  // site, proc, and node ids survive the checkpoint text round trip by
  // construction, but symbols re-intern in textual order, which need not
  // match the original program's interning order (a generator-built
  // program interns in generation order). Abstract states carry access
  // paths — Symbols — so the adapter renders them through the resumed
  // program's own symbol table; comparing raw ids would flag identical
  // states as different whenever the two orders disagree.
  DomainRunResult Got = clients::typestateResult(*PC.Prog, std::move(R.Run));
  auto Mismatch = [&](const char *What, const std::string &Detail) {
    addViolation(CheckKind::CheckpointResume, Name,
                 std::string(What) + " of resumed run differs from the "
                                     "uninterrupted run: " +
                     Detail);
  };
  if (Got.Reports != Td.Reports)
    Mismatch("error sites", divergence("sites", Got.Reports, Td.Reports));
  if (Got.ReportPoints != Td.ReportPoints)
    Mismatch("error points", "set contents differ");
  if (Got.ExitFacts != Td.ExitFacts)
    Mismatch("main-exit states",
             divergence("states", Got.ExitFacts, Td.ExitFacts));
  if (Got.TdSummaries != Td.TdSummaries)
    Mismatch("td-summary count",
             std::to_string(Got.TdSummaries) + " != " +
                 std::to_string(Td.TdSummaries));
  if (Got.TdSummariesPerProc != Td.TdSummariesPerProc)
    Mismatch("per-procedure td-summary counts", "vectors differ");
  if (Got.BuRelations != Td.BuRelations)
    Mismatch("bu-relation count",
             std::to_string(Got.BuRelations) + " != " +
                 std::to_string(Td.BuRelations));
}

/// Replay a deterministic procedure-replacement edit sequence on the
/// incremental serve engine and demand its final verdicts coincide with a
/// from-scratch solve of the final program text. Blow-ups — the serve
/// engine's per-request step budget or its per-point relation cap — are
/// resource facts, not bugs: the check skips the program, mirroring how
/// the other checks skip timed-out runs. The relation cap is deliberately
/// tight so unprunable fuzz programs fail fast instead of stalling the
/// seed loop.
void OracleRun::checkIncremental(const std::set<SiteId> &TdSites) {
  const char *Name = "incremental/edit-replay";
  const unsigned Edits = 3; // Edits replayed per program.
  serve::EngineOptions EO;
  EO.TrackedClass = Prog.symbols().text(Prog.spec(0).name());
  EO.MaxStepsPerRequest = Opts.Limits.MaxSteps;
  EO.MaxRelsPerPoint = 1 << 12;

  std::unique_ptr<serve::ServeEngine> Inc;
  try {
    Inc = std::make_unique<serve::ServeEngine>(programToText(Prog), EO);
  } catch (const std::exception &E) {
    addViolation(CheckKind::IncrementalCoincidence, Name,
                 std::string("engine rejected canonical program text: ") +
                     E.what());
    return;
  }
  if (!Inc->solveInitial().Ok)
    return; // Budget or relation-cap exhaustion: skip, don't fail.

  // The cold solve is an unpruned BU run; its error sites must coincide
  // with the TD reference (site ids survive the text round trip).
  if (Inc->errorSites() != TdSites) {
    addViolation(CheckKind::IncrementalCoincidence, Name,
                 "initial serve solve's error sites " +
                     siteSetStr(Inc->errorSites()) + " != td " +
                     siteSetStr(TdSites));
    return;
  }

  // Replay edits. A budget-exhausted edit is transactional and skipped;
  // any other rejection of a generated edit is a generator/engine bug.
  unsigned Applied = 0;
  for (uint64_t K = 0;
       K != 2 * Edits && Applied != Edits;
       ++K) {
    std::optional<serve::FuzzEdit> E =
        serve::makeFuzzEdit(Inc->programText(), Opts.InterpSeed, K);
    if (!E)
      break; // Nothing editable (e.g. every command is an allocation).
    serve::EditResult R = Inc->applyEdit(E->ProcName, E->Body);
    if (R.BudgetExhausted)
      continue;
    if (!R.Ok) {
      addViolation(CheckKind::IncrementalCoincidence, Name,
                   "generated edit #" + std::to_string(K) + " on '" +
                       E->ProcName + "' rejected: " + R.Error);
      return;
    }
    ++Applied;
  }
  if (Applied == 0)
    return;

  serve::ServeEngine Fresh(Inc->programText(), EO);
  if (!Fresh.solveInitial().Ok)
    return; // The edited program blew up from scratch: skip.

  if (Fresh.errorSites() != Inc->errorSites()) {
    addViolation(CheckKind::IncrementalCoincidence, Name,
                 "after " + std::to_string(Applied) +
                     " edits, incremental error sites " +
                     siteSetStr(Inc->errorSites()) + " != from-scratch " +
                     siteSetStr(Fresh.errorSites()));
    return;
  }
  for (SiteId S = 0; S != Fresh.program().numSites(); ++S)
    if (Fresh.verdict(S) != Inc->verdict(S)) {
      addViolation(CheckKind::IncrementalCoincidence, Name,
                   "after " + std::to_string(Applied) +
                       " edits, verdict for @" + std::to_string(S) +
                       " differs: incremental " +
                       tsVerdictName(Inc->verdict(S)) + " != from-scratch " +
                       tsVerdictName(Fresh.verdict(S)));
      return;
    }

  // Journal-replay coincidence: walk the same deterministic edit
  // sequence through a *journaled* engine (fsync'd WAL append before
  // every commit), then recover crash-style — verified store plus
  // journal tail — into a third engine. The recovered state must equal
  // the resident incremental engine's exactly.
  namespace fs = std::filesystem;
  std::string Base =
      (fs::temp_directory_path() /
       ("swift-oracle-journal-" + std::to_string(::getpid()) + "-" +
        std::to_string(Opts.InterpSeed)))
          .string();
  std::string StPath = Base + ".swiftstore";
  std::string JPath = Base + ".swiftjournal";
  auto Cleanup = [&] {
    std::error_code EC;
    fs::remove(StPath, EC);
    fs::remove(JPath, EC);
  };
  try {
    serve::EngineOptions JEO = EO;
    JEO.StorePath = StPath;
    JEO.JournalPath = JPath;
    serve::ServeEngine J(programToText(Prog), JEO);
    if (!J.solveInitial().Ok) {
      Cleanup();
      return;
    }
    J.resetJournal();
    unsigned JApplied = 0;
    for (uint64_t K = 0;
         K != 2 * Edits && JApplied != Edits;
         ++K) {
      std::optional<serve::FuzzEdit> E =
          serve::makeFuzzEdit(J.programText(), Opts.InterpSeed, K);
      if (!E)
        break;
      serve::EditResult R = J.applyEdit(E->ProcName, E->Body);
      if (R.BudgetExhausted)
        continue;
      if (!R.Ok)
        break;
      ++JApplied;
    }
    if (JApplied != Applied || J.programText() != Inc->programText()) {
      addViolation(CheckKind::IncrementalCoincidence, Name,
                   "journaled engine diverged from the in-memory edit "
                   "sequence (same generator, same caps)");
      Cleanup();
      return;
    }
    serve::ServeEngine Rec(serve::ServeEngine::FromStore{StPath}, JEO);
    size_t Replayed = 0;
    if (!Rec.solveInitial().Ok || !Rec.replayJournal(&Replayed).Ok) {
      addViolation(CheckKind::IncrementalCoincidence, Name,
                   "store+journal recovery failed to re-solve edits the "
                   "journaled engine had accepted");
      Cleanup();
      return;
    }
    bool Same = Replayed == JApplied &&
                Rec.programText() == Inc->programText() &&
                Rec.errorSites() == Inc->errorSites();
    for (SiteId S = 0; Same && S != Rec.program().numSites(); ++S)
      Same = Rec.verdict(S) == Inc->verdict(S);
    if (!Same)
      addViolation(CheckKind::IncrementalCoincidence, Name,
                   "store+journal recovery diverges from the resident "
                   "incremental engine after " +
                       std::to_string(JApplied) + " journaled edits");
  } catch (const std::exception &E) {
    addViolation(CheckKind::IncrementalCoincidence, Name,
                 std::string("journal-replay coincidence check failed: ") +
                     E.what());
  }
  Cleanup();
}

/// Shard-count invariance: the sharded pure-BU pipeline (plan, worker
/// simulation, segment exchange through the spool codec, assembly) must
/// produce identical results at K = 1, 2, and 4 — and their error sites
/// must be TD's, since each sharded run is runTypestateBu by another
/// route. A forced permanent failure of shard 0 must keep the remaining
/// verdicts sound: reported errors are TD errors, and no tracked site
/// whose resolution touched a degraded summary is claimed Proved.
void OracleRun::checkShardInvariance(const TsContext &Ctx,
                                     const std::set<SiteId> &TdSites) {
  // The sharded runner adopts summaries back through the text codec,
  // which interns symbols — it needs a mutable program. Run it on a
  // private text round trip; site ids survive the round trip, so error
  // sites and verdict vectors compare directly against TD's.
  std::unique_ptr<Program> Copy;
  try {
    Copy = parseProgramText(programToText(Prog));
  } catch (const std::exception &E) {
    addViolation(CheckKind::ShardInvariance, "shard/setup",
                 std::string("program text round trip failed: ") + E.what());
    return;
  }
  std::string Class = Prog.symbols().text(Ctx.spec().name());

  shard::ShardedOptions SO;
  SO.Limits = Opts.Limits;
  std::optional<shard::ShardedResult> Ref;
  std::string RefName;
  for (unsigned K : {1u, 2u, 4u}) {
    SO.NumShards = K;
    shard::ShardedResult R = shard::runShardedInProcess(*Copy, Class, SO);
    if (!R.Complete)
      return; // budget exhaustion is a resource fact: skip, don't fail
    std::string KName = "shard/k" + std::to_string(K);
    if (R.ErrorSites != TdSites)
      addViolation(CheckKind::ShardInvariance, KName,
                   "error sites " + siteSetStr(R.ErrorSites) + " != td " +
                       siteSetStr(TdSites));
    if (!Ref) {
      Ref = std::move(R);
      RefName = KName;
      continue;
    }
    auto Mismatch = [&](const char *What) {
      addViolation(CheckKind::ShardInvariance, KName,
                   std::string(What) + " differ from " + RefName);
    };
    if (R.ErrorSites != Ref->ErrorSites)
      Mismatch("error sites");
    if (R.ErrorPoints != Ref->ErrorPoints)
      Mismatch("error points");
    if (R.MainExit != Ref->MainExit)
      Mismatch("main-exit states");
    if (R.Verdicts != Ref->Verdicts)
      Mismatch("verdicts");
  }

  // Forced permanent failure of shard 0 of 2 — the deepest callees'
  // summaries degrade to ignore-all.
  SO.NumShards = 2;
  SO.DegradedShards = {0};
  shard::ShardedResult D = shard::runShardedInProcess(*Copy, Class, SO);
  if (!D.Complete)
    return;
  const char *DName = "shard/k2-degraded0";
  std::set<SiteId> Extra = setMinus(D.ErrorSites, TdSites);
  if (!Extra.empty())
    addViolation(CheckKind::ShardInvariance, DName,
                 "degraded run reports error sites td does not: " +
                     siteSetStr(Extra));
  if (D.Degraded) {
    for (uint32_t S = 0; S != D.Verdicts.size(); ++S)
      if (D.Verdicts[S] == TsVerdict::Proved && Ctx.isTrackedSite(S))
        addViolation(CheckKind::ShardInvariance, DName,
                     "degraded run claims Proved for tracked site @" +
                         std::to_string(S));
  } else if (D.ErrorSites != TdSites) {
    // Shard 0 fell outside main's closure, so the run was full after all
    // and owes exact coincidence.
    addViolation(CheckKind::ShardInvariance, DName,
                 "error sites " + siteSetStr(D.ErrorSites) + " != td " +
                     siteSetStr(TdSites));
  }
}

OracleResult OracleRun::run() {
  // Ground truth: the union of several witness schedules. Reports seen
  // before a budget exhaustion are still real executions, so incomplete
  // schedules contribute too; exit facts count only from schedules that
  // reached main's exit.
  uint64_t ExitSchedules = 0, ReportSchedules = 0;
  for (unsigned I = 0; I != Opts.Schedules; ++I) {
    InterpConfig IC;
    IC.Seed = Opts.InterpSeed + I;
    IC.MaxSteps = 20'000;
    // Alternate loop appetites so both quick exits and deep iteration get
    // explored.
    IC.LoopContinuePerMille = (I % 2) ? 700 : 300;
    clients::WitnessResult W = clients::runClientWitness(Domain, Prog, IC);
    WitnessReports.insert(W.Events.begin(), W.Events.end());
    if (W.ExitFactsValid)
      WitnessExitFacts.insert(W.ExitFacts.begin(), W.ExitFacts.end());
    ExitSchedules += W.ReachedExit;
    ReportSchedules += !W.Events.empty();
  }
  // Witness coverage, one sample per checked program: schedules that
  // never get past a null dereference leave exit facts unchecked.
  if (obs::metricsEnabled()) {
    static obs::Histogram *Exits = obs::MetricsRegistry::instance().histogram(
        "difftest.witness_exit_schedules");
    static obs::Histogram *Reports =
        obs::MetricsRegistry::instance().histogram(
            "difftest.witness_report_schedules");
    Exits->record(ExitSchedules);
    Reports->record(ReportSchedules);
  }

  std::vector<Run> Runs;
  // Once a pure BU run times out, skip its other worker-count variants:
  // the step budget bounds total work, so they would burn the same wall
  // budget just to time out again.
  bool BuTimedOut = false;
  for (const Row &Rw : Table) {
    if (Rw.Mode == DomainMode::Bu && BuTimedOut)
      continue;
    Run R{&Rw, clients::runClientDomain(Domain, Prog, Rw.Mode, Rw.K,
                                        Rw.Theta, Rw.Threads, Opts.Limits)};
    ++Res.RunsDone;
    if (R.Result.Timeout) {
      ++Res.RunsTimedOut;
      BuTimedOut |= Rw.Mode == DomainMode::Bu;
    }
    Runs.push_back(std::move(R));
  }

  const DomainRunResult &Td = Runs.front().Result;
  bool TdOk = !Td.Timeout;
  // A timed-out reference is a resource fact, not a bug: reference-
  // dependent checks are skipped, and the flag lets tools exit with the
  // distinct resource-exhausted code instead of silently passing.
  Res.ReferenceTimedOut = !TdOk;

  for (const Run &R : Runs) {
    if (R.Result.Timeout)
      continue;
    checkSoundness(rowName(*R.Rw), R.Result);
    if (TdOk && &R != &Runs.front())
      checkAgainstTd(*R.Rw, rowName(*R.Rw), R.Result, Td);
  }
  checkThreadDeterminism(Runs);

  if (!TdOk || Domain != "typestate")
    return std::move(Res);
  TsContext Ctx(Prog, Prog.spec(0).name());
  std::set<SiteId> TdSites;
  for (SiteId S = 0; S != Prog.numSites(); ++S)
    if (Td.Reports.count({Prog.site(S).Proc, Prog.site(S).Node}))
      TdSites.insert(S);
  checkPartialSoundness(Ctx, Td, TdSites);
  checkCheckpointResume(Ctx, Td, TdSites);
  checkIncremental(TdSites);
  checkShardInvariance(Ctx, TdSites);
  return std::move(Res);
}

} // namespace

OracleResult swift::difftest::runOracle(const std::string &Domain,
                                        const Program &Prog,
                                        const OracleOptions &Opts) {
  OracleRun R(Domain, Prog, Opts);
  return R.run();
}

ProgramOracle swift::difftest::programOracle(const std::string &Domain,
                                             const OracleOptions &Opts) {
  return [Domain, Opts](const Program &Prog, uint64_t InterpSeed) {
    OracleOptions OO = Opts;
    OO.InterpSeed = InterpSeed;
    return runOracle(Domain, Prog, OO);
  };
}
