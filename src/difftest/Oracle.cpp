//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "difftest/Oracle.h"

#include "concrete/Interpreter.h"
#include "framework/Tabulation.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "shard/Sharded.h"
#include "typestate/Context.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

using namespace swift;
using namespace swift::difftest;

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
  case CheckKind::ManifestOff:
    return "manifest-off";
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

std::string errorPointStr(const Program &Prog, const TsError &E) {
  std::ostringstream OS;
  OS << "@" << E.Site << " at "
     << Prog.symbols().text(Prog.proc(E.Proc).name()) << ":" << E.Node;
  return OS.str();
}

std::string mainExitStr(const Program &Prog,
                        const std::set<TsAbstractState> &S) {
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const TsAbstractState &St : S) {
    OS << (First ? "" : "; ") << St.str(Prog);
    First = false;
  }
  OS << "}";
  return OS.str();
}

/// The first few elements of A \ B, for readable diffs.
template <typename T>
std::vector<T> setMinus(const std::set<T> &A, const std::set<T> &B,
                        size_t Limit = 4) {
  std::vector<T> Out;
  for (const T &X : A) {
    if (!B.count(X)) {
      Out.push_back(X);
      if (Out.size() == Limit)
        break;
    }
  }
  return Out;
}

bool isCallNode(const Program &Prog, ProcId P, NodeId N) {
  return Prog.proc(P).node(N).Cmd.Kind == CmdKind::Call;
}

class OracleRun {
public:
  OracleRun(const Program &Prog, const OracleOptions &Opts)
      : Prog(Prog), Opts(Opts) {}

  OracleResult run();

private:
  void addViolation(CheckKind Kind, const std::string &Config,
                    std::string Detail) {
    Res.Violations.push_back(Violation{Kind, Config, std::move(Detail)});
  }

  void checkSoundness(const TsConfigRun &R);
  void checkAgainstTd(const TsConfigRun &R, const TsRunResult &Td);
  void checkThreadDeterminism(const std::vector<TsConfigRun> &Runs);
  void checkPartialSoundness(const TsContext &Ctx, const TsRunResult &Td);
  void checkCheckpointResume(const TsContext &Ctx, Symbol Tracked,
                             const TsRunResult &Td);
  void checkIncremental(Symbol Tracked, const TsRunResult &Td);
  void checkShardInvariance(const TsContext &Ctx, Symbol Tracked,
                            const TsRunResult &Td);

  const Program &Prog;
  const OracleOptions &Opts;
  OracleResult Res;
};

void OracleRun::checkSoundness(const TsConfigRun &R) {
  std::vector<SiteId> Missed =
      setMinus(Res.ConcreteErrors, R.Result.ErrorSites);
  if (Missed.empty())
    return;
  std::ostringstream OS;
  OS << "concretely erroring sites not reported:";
  for (SiteId S : Missed)
    OS << " @" << S;
  OS << "; reported " << siteSetStr(R.Result.ErrorSites);
  addViolation(CheckKind::Soundness, R.Name, OS.str());
}

void OracleRun::checkAgainstTd(const TsConfigRun &R, const TsRunResult &Td) {
  const TsRunResult &Rr = R.Result;

  if (R.Kind == TsConfigRun::Mode::Bu) {
    if (Rr.ErrorSites != Td.ErrorSites)
      addViolation(CheckKind::BuAgreement, R.Name,
                   "error sites " + siteSetStr(Rr.ErrorSites) +
                       " != td " + siteSetStr(Td.ErrorSites));
    if (Rr.MainExit != Td.MainExit)
      addViolation(CheckKind::BuAgreement, R.Name,
                   "main-exit states " + mainExitStr(Prog, Rr.MainExit) +
                       " != td " + mainExitStr(Prog, Td.MainExit));
    return;
  }

  if (!R.Swift.ObservationManifest) {
    // Ablation: the manifest only affects error *reporting*; value results
    // must still coincide, and reporting may only under-approximate.
    if (Rr.MainExit != Td.MainExit)
      addViolation(CheckKind::ManifestOff, R.Name,
                   "main-exit states " + mainExitStr(Prog, Rr.MainExit) +
                       " != td " + mainExitStr(Prog, Td.MainExit));
    std::vector<SiteId> Extra = setMinus(Rr.ErrorSites, Td.ErrorSites);
    if (!Extra.empty()) {
      std::ostringstream OS;
      OS << "error sites not reported by td:";
      for (SiteId S : Extra)
        OS << " @" << S;
      addViolation(CheckKind::ManifestOff, R.Name, OS.str());
    }
    return;
  }

  // Theorem 3.1: exact coincidence of error sites and main-exit states.
  if (Rr.ErrorSites != Td.ErrorSites)
    addViolation(CheckKind::TdCoincidence, R.Name,
                 "error sites " + siteSetStr(Rr.ErrorSites) + " != td " +
                     siteSetStr(Td.ErrorSites));
  if (Rr.MainExit != Td.MainExit)
    addViolation(CheckKind::TdCoincidence, R.Name,
                 "main-exit states " + mainExitStr(Prog, Rr.MainExit) +
                     " != td " + mainExitStr(Prog, Td.MainExit));

  // Error points: SWIFT may move a point to the serving call site, but a
  // point at a non-call node must be one TD computed too.
  for (const TsError &E : Rr.ErrorPoints) {
    if (Td.ErrorPoints.count(E) || isCallNode(Prog, E.Proc, E.Node))
      continue;
    addViolation(CheckKind::ErrorPointSubset, R.Name,
                 "error point " + errorPointStr(Prog, E) +
                     " is at a non-call node and td never computed it");
  }
}

void OracleRun::checkThreadDeterminism(const std::vector<TsConfigRun> &Runs) {
  // Group runs by everything except the worker count; results must be
  // bit-identical within a group.
  std::map<std::string, const TsConfigRun *> Rep;
  for (const TsConfigRun &R : Runs) {
    if (R.Result.Timeout)
      continue;
    std::string Key;
    if (R.Kind == TsConfigRun::Mode::Bu)
      Key = "bu";
    else if (R.Kind == TsConfigRun::Mode::Swift)
      Key = "swift/k" + std::to_string(R.Swift.K) + "/th" +
            std::to_string(R.Swift.Theta) +
            (R.Swift.ObservationManifest ? "" : "/nomanifest");
    else
      continue;

    auto [It, Inserted] = Rep.emplace(Key, &R);
    if (Inserted)
      continue;
    const TsConfigRun &First = *It->second;
    const TsRunResult &A = First.Result, &B = R.Result;
    auto Mismatch = [&](const char *What) {
      addViolation(CheckKind::ThreadDeterminism, R.Name,
                   std::string(What) + " differs from " + First.Name);
    };
    if (A.ErrorSites != B.ErrorSites)
      Mismatch("error sites");
    if (A.ErrorPoints != B.ErrorPoints)
      Mismatch("error points");
    if (A.MainExit != B.MainExit)
      Mismatch("main-exit states");
    if (A.TdSummaries != B.TdSummaries ||
        A.TdSummariesPerProc != B.TdSummariesPerProc)
      Mismatch("td-summary counts");
    if (A.BuRelations != B.BuRelations)
      Mismatch("bu-relation counts");
  }
}

/// Budget-limited governed runs at fractions of the reference run's step
/// count must return sound subsets: partial error sites are TD error
/// sites, partial verdicts never claim Proved for an unresolved tracked
/// site, and a governed run that happens to complete coincides with TD.
void OracleRun::checkPartialSoundness(const TsContext &Ctx,
                                      const TsRunResult &Td) {
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
    std::vector<SiteId> Extra = setMinus(G.Run.ErrorSites, Td.ErrorSites);
    if (!Extra.empty()) {
      std::ostringstream OS;
      OS << "partial run reports error sites td does not:";
      for (SiteId S : Extra)
        OS << " @" << S;
      addViolation(CheckKind::PartialSoundness, P.Name, OS.str());
    }

    for (uint32_t S = 0; S != G.Verdicts.size(); ++S) {
      TsVerdict V = G.Verdicts[S];
      if (V == TsVerdict::ErrorReported && !Td.ErrorSites.count(S))
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "verdict for @" + std::to_string(S) +
                         " is error but td never reports it");
      if (V == TsVerdict::Proved && G.Partial && Ctx.isTrackedSite(S))
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "partial run claims Proved for tracked site @" +
                         std::to_string(S));
      if (V == TsVerdict::Proved && !G.Partial && Td.ErrorSites.count(S))
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "complete governed run claims Proved for @" +
                         std::to_string(S) + " but td reports it");
    }

    if (!G.Partial) {
      // A completed governed run is an ordinary run; full coincidence.
      if (G.Run.ErrorSites != Td.ErrorSites)
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "complete governed run's error sites " +
                         siteSetStr(G.Run.ErrorSites) + " != td " +
                         siteSetStr(Td.ErrorSites));
      if (G.Run.MainExit != Td.MainExit)
        addViolation(CheckKind::PartialSoundness, P.Name,
                     "complete governed run's main-exit states " +
                         mainExitStr(Prog, G.Run.MainExit) + " != td " +
                         mainExitStr(Prog, Td.MainExit));
    }
  }
}

/// Exhaust a governed TD run at half the reference step count, serialize
/// the checkpoint, parse it back, resume with an unlimited budget, and
/// demand bit-identity with the uninterrupted reference in every result
/// field.
void OracleRun::checkCheckpointResume(const TsContext &Ctx, Symbol Tracked,
                                      const TsRunResult &Td) {
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
    if (G.Run.ErrorSites != Td.ErrorSites || G.Run.MainExit != Td.MainExit)
      addViolation(CheckKind::CheckpointResume, Name,
                   "governed run completed under the limited budget but "
                   "does not coincide with td");
    return;
  }

  // Serialize, parse, and resume on the *parsed* program — the round trip
  // itself is under test.
  TsCheckpoint C;
  C.Config = TdCfg;
  C.TrackedClass = Prog.symbols().text(Tracked);
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
  auto Mismatch = [&](const char *What, const std::string &Detail) {
    addViolation(CheckKind::CheckpointResume, Name,
                 std::string(What) + " of resumed run differs from the "
                                     "uninterrupted run: " +
                     Detail);
  };
  if (R.Run.ErrorSites != Td.ErrorSites)
    Mismatch("error sites", siteSetStr(R.Run.ErrorSites) + " != " +
                                siteSetStr(Td.ErrorSites));
  if (R.Run.ErrorPoints != Td.ErrorPoints)
    Mismatch("error points", "set contents differ");
  // The resumed run lives in the re-parsed program's symbol-id space:
  // site, proc, and node ids survive the checkpoint text round trip by
  // construction, but symbols re-intern in textual order, which need not
  // match the original program's interning order (a generator-built
  // program interns in generation order). Abstract states carry access
  // paths — Symbols — so they must be compared by rendered text through
  // each run's own symbol table; comparing raw ids flags identical states
  // as different (and prints them with swapped names) whenever the two
  // orders disagree.
  auto RenderExit = [](const Program &P,
                       const std::set<TsAbstractState> &S) {
    std::set<std::string> Out;
    for (const TsAbstractState &St : S)
      Out.insert(St.str(P));
    return Out;
  };
  if (RenderExit(*PC.Prog, R.Run.MainExit) != RenderExit(Prog, Td.MainExit))
    Mismatch("main-exit states", mainExitStr(*PC.Prog, R.Run.MainExit) +
                                     " != " + mainExitStr(Prog, Td.MainExit));
  if (R.Run.TdSummaries != Td.TdSummaries)
    Mismatch("td-summary count",
             std::to_string(R.Run.TdSummaries) + " != " +
                 std::to_string(Td.TdSummaries));
  if (R.Run.TdSummariesPerProc != Td.TdSummariesPerProc)
    Mismatch("per-procedure td-summary counts", "vectors differ");
  if (R.Run.BuRelations != Td.BuRelations)
    Mismatch("bu-relation count",
             std::to_string(R.Run.BuRelations) + " != " +
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
void OracleRun::checkIncremental(Symbol Tracked, const TsRunResult &Td) {
  const char *Name = "incremental/edit-replay";
  serve::EngineOptions EO;
  EO.TrackedClass = Prog.symbols().text(Tracked);
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
  if (Inc->errorSites() != Td.ErrorSites) {
    addViolation(CheckKind::IncrementalCoincidence, Name,
                 "initial serve solve's error sites " +
                     siteSetStr(Inc->errorSites()) + " != td " +
                     siteSetStr(Td.ErrorSites));
    return;
  }

  // Replay edits. A budget-exhausted edit is transactional and skipped;
  // any other rejection of a generated edit is a generator/engine bug.
  unsigned Applied = 0;
  for (uint64_t K = 0;
       K != 2 * Opts.IncrementalEdits && Applied != Opts.IncrementalEdits;
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
         K != 2 * Opts.IncrementalEdits && JApplied != Opts.IncrementalEdits;
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
void OracleRun::checkShardInvariance(const TsContext &Ctx, Symbol Tracked,
                                     const TsRunResult &Td) {
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
  std::string Class = Prog.symbols().text(Tracked);

  shard::ShardedOptions SO;
  SO.MaxSteps = Opts.Limits.MaxSteps;
  std::optional<shard::ShardedResult> Ref;
  std::string RefName;
  for (unsigned K : {1u, 2u, 4u}) {
    SO.NumShards = K;
    shard::ShardedResult R = shard::runShardedInProcess(*Copy, Class, SO);
    if (!R.Complete)
      return; // budget exhaustion is a resource fact: skip, don't fail
    std::string KName = "shard/k" + std::to_string(K);
    if (R.ErrorSites != Td.ErrorSites)
      addViolation(CheckKind::ShardInvariance, KName,
                   "error sites " + siteSetStr(R.ErrorSites) + " != td " +
                       siteSetStr(Td.ErrorSites));
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
  std::vector<SiteId> Extra = setMinus(D.ErrorSites, Td.ErrorSites);
  if (!Extra.empty()) {
    std::ostringstream OS;
    OS << "degraded run reports error sites td does not:";
    for (SiteId S : Extra)
      OS << " @" << S;
    addViolation(CheckKind::ShardInvariance, DName, OS.str());
  }
  if (D.Degraded) {
    for (uint32_t S = 0; S != D.Verdicts.size(); ++S)
      if (D.Verdicts[S] == TsVerdict::Proved && Ctx.isTrackedSite(S))
        addViolation(CheckKind::ShardInvariance, DName,
                     "degraded run claims Proved for tracked site @" +
                         std::to_string(S));
  } else if (D.ErrorSites != Td.ErrorSites) {
    // Shard 0 fell outside main's closure, so the run was full after all
    // and owes exact coincidence.
    addViolation(CheckKind::ShardInvariance, DName,
                 "error sites " + siteSetStr(D.ErrorSites) + " != td " +
                     siteSetStr(Td.ErrorSites));
  }
}

OracleResult OracleRun::run() {
  if (Prog.numSpecs() == 0)
    throw std::runtime_error("difftest oracle: program has no typestate spec");
  const TypestateSpec *Spec = nullptr;
  if (Opts.TrackedClass.empty()) {
    Spec = &Prog.spec(0);
  } else {
    for (size_t I = 0; I != Prog.numSpecs() && !Spec; ++I)
      if (Prog.symbols().text(Prog.spec(I).name()) == Opts.TrackedClass)
        Spec = &Prog.spec(I);
    if (!Spec)
      throw std::runtime_error("difftest oracle: no typestate spec for '" +
                               Opts.TrackedClass + "'");
  }
  Symbol Tracked = Spec->name();

  // Ground truth: union of the error sites seen by several concrete
  // schedules. Errors recorded before a budget exhaustion are still real
  // executions, so incomplete runs contribute too.
  for (unsigned I = 0; I != Opts.Schedules; ++I) {
    InterpConfig IC;
    IC.Seed = Opts.InterpSeed + I;
    IC.MaxSteps = Opts.InterpMaxSteps;
    // Alternate loop appetites so both quick exits and deep iteration get
    // explored.
    IC.LoopContinuePerMille = (I % 2) ? 700 : 300;
    InterpResult IR = interpret(Prog, IC);
    for (SiteId S : IR.ErrorSites)
      Res.ConcreteErrors.insert(S);
  }

  TsContext Ctx(Prog, Tracked);
  std::vector<TsConfigRun> Runs = runAllConfigs(Ctx, Opts.Limits,
                                                Opts.Configs);
  for (const TsConfigRun &R : Runs) {
    ++Res.RunsDone;
    if (R.Result.Timeout)
      ++Res.RunsTimedOut;
  }

  const TsConfigRun &Td = Runs.front();
  bool TdOk = !Td.Result.Timeout;
  // A timed-out reference is a resource fact, not a bug: reference-
  // dependent checks are skipped, and the flag lets tools exit with the
  // distinct resource-exhausted code instead of silently passing.
  Res.ReferenceTimedOut = !TdOk;

  for (const TsConfigRun &R : Runs) {
    if (R.Result.Timeout)
      continue;
    // The concrete semantics only enters error states the manifest-on
    // analyses are required to report.
    if (R.Kind != TsConfigRun::Mode::Swift || R.Swift.ObservationManifest)
      checkSoundness(R);
    if (TdOk && &R != &Td)
      checkAgainstTd(R, Td.Result);
  }
  checkThreadDeterminism(Runs);

  if (TdOk && Opts.CheckPartial)
    checkPartialSoundness(Ctx, Td.Result);
  if (TdOk && Opts.CheckCheckpoint)
    checkCheckpointResume(Ctx, Tracked, Td.Result);
  if (TdOk && Opts.CheckIncremental)
    checkIncremental(Tracked, Td.Result);
  if (TdOk && Opts.CheckShard)
    checkShardInvariance(Ctx, Tracked, Td.Result);

  return std::move(Res);
}

} // namespace

OracleResult swift::difftest::runOracle(const Program &Prog,
                                        const OracleOptions &Opts) {
  OracleRun R(Prog, Opts);
  return R.run();
}

ProgramOracle swift::difftest::typestateOracle(const OracleOptions &Opts) {
  return [Opts](const Program &Prog, uint64_t InterpSeed) {
    OracleOptions OO = Opts;
    OO.InterpSeed = InterpSeed;
    return runOracle(Prog, OO);
  };
}
