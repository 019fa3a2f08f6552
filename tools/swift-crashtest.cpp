//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// swift-crashtest — the crash-recovery campaign. For each fuzz seed it
/// exhausts a governed TD run on a tiny step budget and saves checkpoint
/// A, then for every kill schedule it forks a child that resumes from A
/// and tries to save the successor checkpoint B over the same path with
/// a '!kill' failpoint armed somewhere inside the save (open, the Nth
/// write chunk, fsync, close, rename) — the child dies mid-write exactly
/// as on a power cut. The parent then asserts the crash-safety contract:
///
///  1. the surviving file loads cleanly (magic/length/CRC validate), and
///  2. it is byte-identical to either the complete old checkpoint A or
///     the complete new checkpoint B — never a torn mix, and
///  3. resuming from the surviving file with an unlimited budget yields
///     exactly the uninterrupted run's results (the PR 3 resume-
///     coincidence oracle, extended to post-crash states).
///
/// The same contract is enforced on the serve engine's summary store: a
/// child warm-starts from store A, applies a generated procedure edit,
/// and is killed somewhere inside the store save (failpoints
/// serve.save.open/write/flush/close/rename). The survivor must decode
/// cleanly, be byte-identical to old-A or new-B, and a warm start from
/// it — replaying the edit when the crash preserved A — must end with
/// exactly the error sites and verdicts of a from-scratch solve of the
/// edited program.
///
/// The fourth campaign targets the serve daemon's write-ahead edit
/// journal: a child warm-starts from a baseline store with an empty
/// journal, applies a short accepted-edit sequence (each edit fsync-
/// appended before commit), and compacts — and is killed mid-append
/// (journal.append.*), mid-warm-start-save or mid-compaction-store-save
/// (serve.save.*), or mid-journal-reset (journal.compact.*). The parent
/// asserts: the store survivor is byte-for-byte the baseline or the
/// compacted snapshot; the journal survivor is a clean byte prefix of
/// the uninterrupted run's journal (a fresh reset header is itself such
/// a prefix); and store+journal recovery coincides exactly — error
/// sites, all verdicts, program text — with the reference state over
/// the same accepted-edit prefix.
///
/// The third campaign kills whole *worker processes* of the sharded
/// multi-process analysis: for each seed it runs the real coordinator
/// (fork/exec of swift-shard-worker) to completion once as the
/// reference, then re-runs it on an empty spool under kill schedules
/// that land inside the spool-segment save (spool.save.*) or mid-SCC
/// solve (worker.scc.solve), letting the coordinator restart the dead
/// workers. After every run:
///
///  1. each surviving seg-*.spool decodes cleanly and is byte-for-byte
///     a segment the uninterrupted run wrote — never torn, never bytes
///     no clean run would produce, and
///  2. the recovered run's error sites and verdicts equal the
///     uninterrupted run's, and
///  3. under an every-incarnation kill that drains the restart budget,
///     the coordinator's governed fallback still produces sound
///     verdicts.
///
/// Exit code: 0 all seeds clean, 1 contract violation, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "difftest/Difftest.h"
#include "framework/Tabulation.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "serve/Journal.h"
#include "serve/Store.h"
#include "shard/Coordinator.h"
#include "shard/Spool.h"
#include "support/AtomicFile.h"
#include "support/CliParse.h"
#include "support/FailPoint.h"
#include "typestate/Context.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include <sys/wait.h>
#include <unistd.h>

using namespace swift;

namespace {

struct ToolOptions {
  uint64_t Seeds = 25;
  uint64_t FirstSeed = 1;
  uint64_t Steps = 40; ///< Phase-1 budget that provokes the checkpoint.
  std::string OutDir = "results/crashtest";
  std::string WorkerBin; ///< Default: swift-shard-worker next to us.
  std::string JsonOut;   ///< --json-out= machine-readable result file.
  bool ShowHelp = false;
};

/// Kill positions inside saveCheckpointFile. nth(N) on the write chunk
/// moves the crash through the payload (512-byte chunks); the others hit
/// the open / fsync / close / rename edges.
const char *const KillSchedules[] = {
    "ckpt.save.open=nth(1)!kill",  "ckpt.save.write=nth(1)!kill",
    "ckpt.save.write=nth(2)!kill", "ckpt.save.write=nth(4)!kill",
    "ckpt.save.flush=nth(1)!kill", "ckpt.save.close=nth(1)!kill",
    "ckpt.save.rename=nth(1)!kill"};

const char *usageText() {
  return "usage: swift-crashtest [options]\n"
         "  --seeds=N       fuzz seeds to test (default 25)\n"
         "  --first-seed=N  first seed (default 1)\n"
         "  --steps=N       step budget provoking the first checkpoint\n"
         "                  (default 40)\n"
         "  --out-dir=DIR   scratch directory (default results/crashtest)\n"
         "  --worker-bin=F  swift-shard-worker path for the worker-kill\n"
         "                  campaign (default: next to this binary)\n"
         "  --json-out=F    write a versioned machine-readable result\n"
         "                  (format swift-crashtest v1: per-campaign\n"
         "                  seeds/kills/violations) for CI gating\n"
         "  --help          this text\n"
         "exit: 0 clean, 1 crash-safety violation, 2 usage error\n";
}

bool parseArgs(int Argc, char **Argv, ToolOptions &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    std::string_view V;
    if (cli::matchValueFlag(A, "--seeds=", V)) {
      if (!cli::parseU64(V, O.Seeds) || O.Seeds == 0) {
        Err = "invalid --seeds value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--first-seed=", V)) {
      if (!cli::parseU64(V, O.FirstSeed)) {
        Err = "invalid --first-seed value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--steps=", V)) {
      if (!cli::parseU64(V, O.Steps) || O.Steps == 0) {
        Err = "invalid --steps value '" + std::string(V) + "'";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--out-dir=", V)) {
      if (V.empty()) {
        Err = "--out-dir needs a path";
        return false;
      }
      O.OutDir = V;
    } else if (cli::matchValueFlag(A, "--worker-bin=", V)) {
      if (V.empty()) {
        Err = "--worker-bin needs a path";
        return false;
      }
      O.WorkerBin = V;
    } else if (cli::matchValueFlag(A, "--json-out=", V)) {
      if (V.empty()) {
        Err = "--json-out needs a file path";
        return false;
      }
      O.JsonOut = V;
    } else if (A == "--help") {
      O.ShowHelp = true;
    } else {
      Err = "unknown flag '" + std::string(A) + "'";
      return false;
    }
  }
  return true;
}

GovernedRunOptions tdOptions(uint64_t MaxSteps) {
  GovernedRunOptions GO;
  GO.Config.K = NoBuTrigger; // pure TD: single-threaded, fork-safe,
  GO.Config.Theta = 1;       // and bit-identical resume guaranteed
  GO.Limits.MaxSteps = MaxSteps;
  return GO;
}

/// Loads the checkpoint at \p Path and resumes it under \p MaxSteps.
/// On exhaustion (and with \p SavePath nonempty) saves the successor
/// checkpoint over \p SavePath.
TsGovernedResult resumeFromFile(const std::string &Path, uint64_t MaxSteps,
                                const std::string &SavePath) {
  ParsedCheckpoint PC = loadCheckpointFile(Path);
  TsContext Ctx(*PC.Prog,
                PC.Prog->symbols().intern(PC.Checkpoint.TrackedClass));
  GovernedRunOptions GO = tdOptions(MaxSteps);
  GO.Config = PC.Checkpoint.Config;
  GO.ResumeFrom = &PC.Checkpoint.Snapshot;
  TsTabSnapshot Out;
  GO.CheckpointOut = &Out;
  TsGovernedResult G = runTypestateGoverned(Ctx, GO);
  if (G.Partial && !SavePath.empty()) {
    TsCheckpoint C;
    C.Config = GO.Config;
    C.TrackedClass = PC.Checkpoint.TrackedClass;
    C.StepsConsumed = Out.StepsConsumed;
    C.Snapshot = std::move(Out);
    saveCheckpointFile(SavePath, *PC.Prog, C);
  }
  return G;
}

struct SeedStats {
  uint64_t Tested = 0;    ///< Seeds whose phase-1 run went partial.
  uint64_t Completed = 0; ///< Seeds that finished under the tiny budget.
  uint64_t KillsLanded = 0;
  uint64_t ChildCompleted = 0;
  uint64_t Violations = 0;
};

bool coincides(const TsGovernedResult &A, const TsGovernedResult &B) {
  return A.Run.ErrorSites == B.Run.ErrorSites &&
         A.Run.ErrorPoints == B.Run.ErrorPoints &&
         A.Run.MainExit == B.Run.MainExit &&
         A.Run.TdSummaries == B.Run.TdSummaries &&
         A.Verdicts == B.Verdicts;
}

void reportViolation(SeedStats &St, uint64_t Seed, const char *Schedule,
                     const std::string &What) {
  ++St.Violations;
  std::printf("seed %llu [%s]: VIOLATION: %s\n",
              static_cast<unsigned long long>(Seed), Schedule, What.c_str());
}

/// Forks a child that arms the kill \p Schedule and runs \p Body, whose
/// result is the child's exit code (an exception exits 3), and waits for
/// it. A landed kill or a completed child is counted and returns true:
/// the caller checks what the child left on disk. Anything else is a
/// violation and returns false.
bool runKillChild(SeedStats &St, uint64_t Seed, const char *Schedule,
                  const std::function<int()> &Body) {
  pid_t Pid = ::fork();
  if (Pid < 0) {
    reportViolation(St, Seed, Schedule, "fork failed");
    return false;
  }
  if (Pid == 0) {
    // _exit keeps the parent's stdio buffers from double-flushing.
    int Code = 3;
    try {
      failpoint::armSpec(Schedule);
      Code = Body();
    } catch (...) {
    }
    ::_exit(Code);
  }

  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status)) {
    reportViolation(St, Seed, Schedule,
                    "child did not exit normally (signal?)");
    return false;
  }
  int Code = WEXITSTATUS(Status);
  if (Code == failpoint::KillExitCode)
    ++St.KillsLanded;
  else if (Code == 0)
    ++St.ChildCompleted; // schedule beyond what this seed exercises
  else {
    reportViolation(St, Seed, Schedule,
                    "child failed with exit " + std::to_string(Code));
    return false;
  }
  return true;
}

void runSeed(uint64_t Seed, const ToolOptions &O, SeedStats &St) {
  // Normalise the generated program through one text round trip so its
  // symbol table matches what every checkpoint reload will reconstruct.
  // parseProgramText interns symbols in textual order, which can differ
  // from generation order; print/parse is a fixed point after one pass,
  // so the reference run and all resumed runs share identical symbol
  // ids and coincides() can compare abstract states exactly.
  std::unique_ptr<Program> Prog = parseProgramText(
      programToText(*generateFuzzProgram(difftest::fuzzConfigForSeed(Seed))));
  TsContext Ctx(*Prog, Prog->spec(0).name());

  // The uninterrupted reference run every recovery must coincide with.
  TsGovernedResult Full = runTypestateGoverned(Ctx, tdOptions(UINT64_MAX));

  // Phase 1: exhaust on the tiny budget, save checkpoint A.
  GovernedRunOptions GO = tdOptions(O.Steps);
  TsTabSnapshot Snap;
  GO.CheckpointOut = &Snap;
  TsGovernedResult G = runTypestateGoverned(Ctx, GO);
  if (!G.Partial) {
    ++St.Completed;
    return;
  }
  ++St.Tested;

  std::string CkPath =
      O.OutDir + "/seed" + std::to_string(Seed) + ".swiftckpt";
  TsCheckpoint A;
  A.Config = GO.Config;
  A.TrackedClass = Prog->symbols().text(Prog->spec(0).name());
  A.StepsConsumed = Snap.StepsConsumed;
  A.Snapshot = std::move(Snap);
  saveCheckpointFile(CkPath, *Prog, A);
  const std::string TextA = readWholeFile(CkPath);

  // What the successor checkpoint B will be, byte for byte: the child's
  // resume is deterministic (single-threaded, step-limited), so a dry
  // run over a scratch path predicts it exactly.
  const uint64_t ResumeSteps = std::max<uint64_t>(4, O.Steps / 2);
  std::string DryPath = CkPath + ".dry";
  writeFileAtomic(DryPath, TextA, "crashtest.scratch");
  TsGovernedResult Dry = resumeFromFile(DryPath, ResumeSteps, DryPath);
  const std::string TextB = Dry.Partial ? readWholeFile(DryPath) : "";
  ::unlink(DryPath.c_str());

  for (const char *Schedule : KillSchedules) {
    // Fresh A on disk, then crash a child mid-save of B.
    writeFileAtomic(CkPath, TextA, "crashtest.scratch");
    if (!runKillChild(St, Seed, Schedule, [&] {
          resumeFromFile(CkPath, ResumeSteps, CkPath);
          return 0;
        }))
      continue;

    // Contract 1+2: the survivor is a complete, valid old-or-new file.
    std::string Survivor;
    try {
      Survivor = readWholeFile(CkPath);
      (void)parseCheckpointFile(Survivor);
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule,
                      std::string("surviving checkpoint unusable: ") +
                          E.what());
      continue;
    }
    if (Survivor != TextA && (TextB.empty() || Survivor != TextB)) {
      reportViolation(St, Seed, Schedule,
                      "surviving checkpoint is neither the old nor the "
                      "new snapshot (torn write?)");
      continue;
    }

    // Contract 3: recovery coincides with the uninterrupted run.
    try {
      TsGovernedResult Rec = resumeFromFile(CkPath, UINT64_MAX, "");
      if (Rec.Partial || !coincides(Rec, Full))
        reportViolation(St, Seed, Schedule,
                        "post-crash resume diverges from the "
                        "uninterrupted run");
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule,
                      std::string("post-crash resume failed: ") + E.what());
    }
  }
  ::unlink(CkPath.c_str());
}

//===----------------------------------------------------------------------===//
// Serve-store campaign
//===----------------------------------------------------------------------===//

/// Kill positions inside the serve engine's store save (the same
/// writeFileAtomic edges as the checkpoint, under the "serve.save"
/// failpoint prefix).
const char *const ServeKillSchedules[] = {
    "serve.save.open=nth(1)!kill",  "serve.save.write=nth(1)!kill",
    "serve.save.write=nth(2)!kill", "serve.save.write=nth(4)!kill",
    "serve.save.flush=nth(1)!kill", "serve.save.close=nth(1)!kill",
    "serve.save.rename=nth(1)!kill"};

serve::EngineOptions serveOptions() {
  serve::EngineOptions EO;
  // Tight caps so unprunable fuzz programs fail fast and get skipped
  // (relation blow-up is a resource fact, the same skip the difftest
  // oracle applies), instead of stalling the seed loop.
  EO.MaxStepsPerRequest = 2'000'000;
  EO.MaxRelsPerPoint = 1 << 12;
  return EO;
}

/// Warm-start from the store at \p Path, fill any summary gaps, apply
/// \p Edit when the store predates it, and save back over \p Path.
/// Returns false when any solve blew its budget (nothing saved).
bool resumeStore(const std::string &Path, const serve::FuzzEdit &Edit,
                 bool ApplyEdit) {
  serve::ServeEngine E(serve::ServeEngine::FromStore{Path}, serveOptions());
  if (!E.solveInitial().Ok)
    return false;
  if (ApplyEdit) {
    serve::EditResult R = E.applyEdit(Edit.ProcName, Edit.Body);
    if (!R.Ok)
      return false;
  }
  E.saveStore(Path);
  return true;
}

/// One seed of the serve-store kill campaign. Store A is the cold
/// solve's save; store B is A after one generated procedure edit. Every
/// kill schedule crashes a child somewhere inside the save of B, then
/// the parent asserts decode-clean + old-or-new bytes + edit-replayed
/// recovery coincides with a from-scratch solve of the edited program.
void runServeSeed(uint64_t Seed, const ToolOptions &O, SeedStats &St) {
  std::string Text =
      programToText(*generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)));

  serve::ServeEngine Cold(Text, serveOptions());
  if (!Cold.solveInitial().Ok) {
    ++St.Completed; // blow-up under the tight caps: skip, don't fail
    return;
  }
  std::optional<serve::FuzzEdit> Edit = serve::makeFuzzEdit(Text, Seed, 0);
  if (!Edit) {
    ++St.Completed; // nothing editable in this program
    return;
  }

  std::string StPath =
      O.OutDir + "/seed" + std::to_string(Seed) + ".swiftstore";
  Cold.saveStore(StPath);
  const std::string BytesA = readWholeFile(StPath);

  // Predict store B byte-for-byte: the child's warm-start + edit + save
  // is deterministic, so replaying it over a scratch path tells us what
  // a completed save would have written.
  std::string DryPath = StPath + ".dry";
  writeFileAtomic(DryPath, BytesA, "crashtest.scratch");
  if (!resumeStore(DryPath, *Edit, /*ApplyEdit=*/true)) {
    ::unlink(DryPath.c_str());
    ::unlink(StPath.c_str());
    ++St.Completed; // the edit itself blew the budget: skip
    return;
  }
  const std::string BytesB = readWholeFile(DryPath);
  ::unlink(DryPath.c_str());
  ++St.Tested;

  // The from-scratch reference on the edited program, computed once.
  serve::ServeEngine Scratch(Text, serveOptions());
  bool ScratchOk = Scratch.solveInitial().Ok &&
                   Scratch.applyEdit(Edit->ProcName, Edit->Body).Ok;

  for (const char *Schedule : ServeKillSchedules) {
    writeFileAtomic(StPath, BytesA, "crashtest.scratch");
    if (!runKillChild(St, Seed, Schedule, [&] {
          resumeStore(StPath, *Edit, /*ApplyEdit=*/true);
          return 0;
        }))
      continue;

    // Contract 1+2: the survivor decodes and is old-A or new-B bytes.
    std::string Survivor;
    try {
      Survivor = readWholeFile(StPath);
      (void)serve::decodeStore(Survivor);
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule,
                      std::string("surviving store unusable: ") + E.what());
      continue;
    }
    if (Survivor != BytesA && Survivor != BytesB) {
      reportViolation(St, Seed, Schedule,
                      "surviving store is neither the old nor the new "
                      "snapshot (torn write?)");
      continue;
    }

    // Contract 3: recovery — warm-start the survivor, replay the edit if
    // the crash preserved A — coincides with the from-scratch solve.
    if (!ScratchOk)
      continue; // reference blew the budget; bytes contract still held
    try {
      serve::ServeEngine Rec(serve::ServeEngine::FromStore{StPath},
                             serveOptions());
      if (!Rec.solveInitial().Ok)
        continue;
      if (Survivor == BytesA) {
        serve::EditResult R = Rec.applyEdit(Edit->ProcName, Edit->Body);
        if (!R.Ok)
          continue;
      }
      bool Same = Rec.errorSites() == Scratch.errorSites() &&
                  Rec.programText() == Scratch.programText();
      for (SiteId S = 0; Same && S != Rec.program().numSites(); ++S)
        Same = Rec.verdict(S) == Scratch.verdict(S);
      if (!Same)
        reportViolation(St, Seed, Schedule,
                        "post-crash warm start diverges from the "
                        "from-scratch solve of the edited program");
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule,
                      std::string("post-crash warm start failed: ") +
                          E.what());
    }
  }
  ::unlink(StPath.c_str());
}

//===----------------------------------------------------------------------===//
// Journal campaign (WAL kill-mid-append / kill-mid-compaction)
//===----------------------------------------------------------------------===//

/// Reference state after an accepted-edit prefix: what any recovery that
/// lands on this prefix must reproduce exactly.
struct JournalPrefixState {
  std::string Text;
  std::set<SiteId> Errors;
  std::vector<TsVerdict> Verdicts;
  size_t JournalSize = 0; ///< Uninterrupted journal bytes at this prefix.
};

std::vector<TsVerdict> allVerdicts(const serve::ServeEngine &E) {
  std::vector<TsVerdict> V;
  V.reserve(E.program().numSites());
  for (SiteId S = 0; S != E.program().numSites(); ++S)
    V.push_back(E.verdict(S));
  return V;
}

JournalPrefixState snapshotPrefix(const serve::ServeEngine &E,
                                  size_t JournalSize) {
  JournalPrefixState P;
  P.Text = E.programText();
  P.Errors = E.errorSites();
  P.Verdicts = allVerdicts(E);
  P.JournalSize = JournalSize;
  return P;
}

/// One seed of the journal kill campaign. The parent dry-runs the whole
/// uninterrupted life of a journaled session — warm start, K accepted
/// edits, compaction — recording the store bytes before (A) and after
/// (B) compaction, the full journal bytes, and the reference state at
/// every accepted-edit prefix. Then each kill schedule crashes a child
/// redoing that life on fresh A + empty journal, and the parent asserts
/// the survivor-byte and recovery-coincidence contracts.
void runJournalSeed(uint64_t Seed, const ToolOptions &O, SeedStats &St) {
  std::string Text =
      programToText(*generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)));
  std::string Base = O.OutDir + "/journal-seed" + std::to_string(Seed);
  std::string StPath = Base + ".swiftstore";
  std::string JPath = Base + ".swiftjournal";
  std::string DryStore = StPath + ".dry";
  std::string DryJournal = JPath + ".dry";
  auto CleanupDry = [&] {
    ::unlink(DryStore.c_str());
    ::unlink(DryJournal.c_str());
  };

  // Dry run: the uninterrupted byte trajectory and per-prefix references.
  serve::EngineOptions DEO = serveOptions();
  DEO.StorePath = DryStore;
  DEO.JournalPath = DryJournal;
  std::vector<JournalPrefixState> Ref;
  std::vector<serve::FuzzEdit> Edits;
  std::string BytesA, BytesB, FullJournal, FreshJournal;
  try {
    serve::ServeEngine Dry(Text, DEO);
    if (!Dry.solveInitial().Ok) {
      ++St.Completed; // blow-up under the tight caps: skip, don't fail
      CleanupDry();
      return;
    }
    Dry.resetJournal();
    BytesA = readWholeFile(DryStore);
    FreshJournal = readWholeFile(DryJournal);
    Ref.push_back(snapshotPrefix(Dry, FreshJournal.size()));
    // Up to 3 accepted edits from the first few candidates; rejected
    // candidates (budget under the tight caps) are transactional no-ops,
    // so the child's replay of the accepted list is deterministic.
    for (uint64_t K = 0; K != 6 && Edits.size() != 3; ++K) {
      std::optional<serve::FuzzEdit> FE =
          serve::makeFuzzEdit(Dry.programText(), Seed, K);
      if (!FE)
        break;
      if (!Dry.applyEdit(FE->ProcName, FE->Body).Ok)
        continue;
      Edits.push_back(*FE);
      Ref.push_back(snapshotPrefix(Dry, readWholeFile(DryJournal).size()));
    }
    if (Edits.empty()) {
      ++St.Completed; // nothing editable / nothing accepted
      CleanupDry();
      return;
    }
    FullJournal = readWholeFile(DryJournal);
    Dry.compact();
    BytesB = readWholeFile(DryStore);
  } catch (const std::exception &E) {
    reportViolation(St, Seed, "journal-dry",
                    std::string("uninterrupted journal run failed: ") +
                        E.what());
    CleanupDry();
    return;
  }
  CleanupDry();
  ++St.Tested;

  // The child's life fires serve.save twice: the warm-start auto-save
  // (store A's chunk count, known from the dry bytes) and compaction's
  // snapshot of B. nth() positions past the first save land inside the
  // second.
  const uint64_t ChunksA = (BytesA.size() + 511) / 512;
  const std::string Schedules[] = {
      // Mid-append: before the first record, inside record bytes, at the
      // fsync/close edges of the first and second append.
      "journal.append.open=nth(1)!kill",
      "journal.append.write=nth(1)!kill",
      "journal.append.write=nth(2)!kill",
      "journal.append.write=nth(3)!kill",
      "journal.append.flush=nth(1)!kill",
      "journal.append.flush=nth(2)!kill",
      "journal.append.close=nth(1)!kill",
      // Mid-warm-start auto-save (before any append).
      "serve.save.rename=nth(1)!kill",
      // Mid-compaction store snapshot.
      "serve.save.write=nth(" + std::to_string(ChunksA + 1) + ")!kill",
      "serve.save.flush=nth(2)!kill",
      "serve.save.rename=nth(2)!kill",
      // Mid-compaction journal reset.
      "journal.compact.write=nth(1)!kill",
      "journal.compact.rename=nth(1)!kill",
  };

  for (const std::string &Schedule : Schedules) {
    // Fresh baseline on disk: store A, empty (header-only) journal.
    writeFileAtomic(StPath, BytesA, "crashtest.scratch");
    writeFileAtomic(JPath, FreshJournal, "crashtest.scratch");
    if (!runKillChild(St, Seed, Schedule.c_str(), [&] {
          serve::EngineOptions EO = serveOptions();
          EO.StorePath = StPath;
          EO.JournalPath = JPath;
          serve::ServeEngine E(serve::ServeEngine::FromStore{StPath}, EO);
          if (!E.solveInitial().Ok || !E.replayJournal().Ok)
            return 4;
          for (const serve::FuzzEdit &FE : Edits)
            if (!E.applyEdit(FE.ProcName, FE.Body).Ok)
              return 4;
          E.compact();
          return 0;
        }))
      continue;

    // Contract 1: the store survivor decodes and is old-A or new-B; the
    // journal survivor is a clean byte prefix of the uninterrupted
    // journal (O_APPEND never reorders, writeFileAtomic never tears, and
    // the fresh reset header is itself such a prefix).
    std::string SurvStore, SurvJournal;
    try {
      SurvStore = readWholeFile(StPath);
      (void)serve::decodeStore(SurvStore);
      SurvJournal = readWholeFile(JPath);
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule.c_str(),
                      std::string("survivor unusable: ") + E.what());
      continue;
    }
    if (SurvStore != BytesA && SurvStore != BytesB) {
      reportViolation(St, Seed, Schedule.c_str(),
                      "surviving store is neither the baseline nor the "
                      "compacted snapshot (torn write?)");
      continue;
    }
    if (SurvJournal.size() > FullJournal.size() ||
        FullJournal.compare(0, SurvJournal.size(), SurvJournal) != 0) {
      reportViolation(St, Seed, Schedule.c_str(),
                      "surviving journal is not a clean prefix of the "
                      "uninterrupted journal (torn or reordered write?)");
      continue;
    }

    // Which accepted-edit prefix did the crash preserve? With the
    // compacted store, all of them (replay onto it is idempotent);
    // otherwise the number of *complete* records in the journal
    // survivor, by the dry run's per-prefix byte boundaries.
    size_t N = 0;
    if (SurvStore == BytesB) {
      N = Edits.size();
    } else {
      while (N + 1 < Ref.size() &&
             Ref[N + 1].JournalSize <= SurvJournal.size())
        ++N;
    }

    // Contract 2: store + journal-tail recovery coincides with the
    // reference state over exactly that prefix.
    try {
      serve::EngineOptions REO = serveOptions();
      REO.StorePath = StPath;
      REO.JournalPath = JPath;
      serve::ServeEngine Rec(serve::ServeEngine::FromStore{StPath}, REO);
      if (!Rec.solveInitial().Ok) {
        reportViolation(St, Seed, Schedule.c_str(),
                        "recovery initial solve failed");
        continue;
      }
      serve::EditResult RR = Rec.replayJournal();
      if (!RR.Ok) {
        reportViolation(St, Seed, Schedule.c_str(),
                        "recovery journal replay failed: " + RR.Error);
        continue;
      }
      const JournalPrefixState &Want = Ref[N];
      if (Rec.programText() != Want.Text ||
          Rec.errorSites() != Want.Errors ||
          allVerdicts(Rec) != Want.Verdicts)
        reportViolation(St, Seed, Schedule.c_str(),
                        "recovery diverges from the reference over the "
                        "accepted-edit prefix (" + std::to_string(N) +
                            " of " + std::to_string(Edits.size()) +
                            " edits)");
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule.c_str(),
                      std::string("recovery failed: ") + E.what());
    }
  }
  ::unlink(StPath.c_str());
  ::unlink(JPath.c_str());
}

//===----------------------------------------------------------------------===//
// Worker-kill campaign (sharded multi-process analysis)
//===----------------------------------------------------------------------===//

/// Kill positions inside a worker: the writeFileAtomic edges of the
/// spool-segment save, and the middle of an SCC solve (before anything
/// of that SCC reached the spool). Only incarnation 0 is armed, so the
/// restarted worker runs clean and the coordinator must recover.
const char *const ShardKillSchedules[] = {
    "spool.save.open=nth(1)!kill",  "spool.save.write=nth(1)!kill",
    "spool.save.write=nth(2)!kill", "spool.save.flush=nth(1)!kill",
    "spool.save.close=nth(1)!kill", "spool.save.rename=nth(1)!kill",
    "worker.scc.solve=nth(1)!kill", "worker.scc.solve=nth(2)!kill"};

std::string defaultWorkerBin() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "swift-shard-worker";
  Buf[N] = '\0';
  std::string Self(Buf);
  size_t Slash = Self.rfind('/');
  if (Slash == std::string::npos)
    return "swift-shard-worker";
  return Self.substr(0, Slash + 1) + "swift-shard-worker";
}

/// Reads every complete segment file ("seg-<scc>.spool") in \p Dir.
/// In-flight temp files (*.spool.tmp.<pid>) left by killed writers are
/// invisible to segment loads and deliberately excluded here too.
std::map<std::string, std::string> readSpoolSegments(const std::string &Dir) {
  std::map<std::string, std::string> Out;
  std::error_code EC;
  for (const std::filesystem::directory_entry &E :
       std::filesystem::directory_iterator(Dir, EC)) {
    std::string Name = E.path().filename().string();
    constexpr std::string_view Suffix = ".spool";
    if (Name.size() <= Suffix.size() ||
        std::string_view(Name).substr(Name.size() - Suffix.size()) != Suffix)
      continue;
    Out[Name] = readWholeFile(E.path().string());
  }
  return Out;
}

/// One seed of the worker-kill campaign: reference run on a clean spool,
/// then every kill schedule on a fresh spool, then the every-incarnation
/// kill that must drain the restart budget into the governed fallback.
void runShardSeed(uint64_t Seed, const ToolOptions &O, SeedStats &St) {
  namespace fs = std::filesystem;
  std::string Text =
      programToText(*generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)));
  std::string Base = O.OutDir + "/shard-seed" + std::to_string(Seed);
  std::error_code EC;
  fs::remove_all(Base, EC);
  fs::create_directories(Base + "/ref", EC);
  std::string ProgPath = Base + "/prog.swiftir";
  writeFileAtomic(ProgPath, Text, "crashtest.scratch");

  shard::CoordinatorOptions CO;
  CO.ProgramPath = ProgPath;
  CO.WorkerBin = O.WorkerBin;
  CO.NumShards = 2;
  CO.MaxWorkers = 2;
  CO.SpoolDir = Base + "/ref";
  // Blow-ups under this cap are resource facts: the seed is skipped, the
  // same policy the serve campaign applies.
  CO.WorkerMaxSteps = 2'000'000;
  CO.FallbackMaxSteps = 10'000'000;
  CO.RestartBudget = 5;
  CO.BackoffBaseMs = 1; // keep the campaign fast; correctness is timing-free
  CO.HeartbeatTimeoutMs = 0; // exit status is the only liveness signal here

  shard::ShardRunReport Ref;
  try {
    Ref = shard::runCoordinator(CO);
  } catch (const std::exception &E) {
    reportViolation(St, Seed, "shard-ref",
                    std::string("reference coordinator run failed: ") +
                        E.what());
    return;
  }
  if (!Ref.Complete) {
    ++St.Completed; // budget exhaustion: skip, don't fail
    fs::remove_all(Base, EC);
    return;
  }
  // The uninterrupted run's segments: the only bytes a survivor may hold.
  std::map<std::string, std::string> RefSegs =
      readSpoolSegments(Base + "/ref");
  if (RefSegs.empty()) {
    reportViolation(St, Seed, "shard-ref",
                    "reference run published no spool segments");
    fs::remove_all(Base, EC);
    return;
  }
  ++St.Tested;

  std::string RunDir = Base + "/run";
  auto FreshRunDir = [&] {
    fs::remove_all(RunDir, EC);
    fs::create_directories(RunDir, EC);
  };

  for (const char *Schedule : ShardKillSchedules) {
    FreshRunDir();
    CO.SpoolDir = RunDir;
    CO.WorkerFailpoints = Schedule;
    CO.FailpointsAllIncarnations = false;
    shard::ShardRunReport R;
    try {
      R = shard::runCoordinator(CO);
    } catch (const std::exception &E) {
      reportViolation(St, Seed, Schedule,
                      std::string("coordinator run failed: ") + E.what());
      continue;
    }
    // Every restart is a landed kill (only incarnation 0 is armed, and
    // nothing else crashes workers here).
    St.KillsLanded += R.Restarts;
    if (R.Restarts == 0)
      ++St.ChildCompleted; // schedule beyond what this program exercises

    // Contract 1: every surviving segment decodes cleanly and is
    // byte-for-byte a segment the uninterrupted run wrote.
    for (const auto &[Name, Bytes] : readSpoolSegments(RunDir)) {
      try {
        (void)shard::decodeSegment(Bytes);
      } catch (const std::exception &E) {
        reportViolation(St, Seed, Schedule,
                        "surviving segment " + Name +
                            " unusable: " + E.what());
        continue;
      }
      auto It = RefSegs.find(Name);
      if (It == RefSegs.end())
        reportViolation(St, Seed, Schedule,
                        "surviving segment " + Name +
                            " has no counterpart in the uninterrupted run");
      else if (It->second != Bytes)
        reportViolation(St, Seed, Schedule,
                        "surviving segment " + Name +
                            " differs from the uninterrupted run's bytes "
                            "(torn write?)");
    }

    // Contract 2: the recovered run coincides with the uninterrupted one.
    if (R.FallbackPartial) {
      reportViolation(St, Seed, Schedule,
                      "recovered run ended with partial verdicts");
      continue;
    }
    if (R.ErrorSites != Ref.ErrorSites || R.Verdicts != Ref.Verdicts)
      reportViolation(St, Seed, Schedule,
                      "recovered run diverges from the uninterrupted run");
  }

  // Contract 3: kill every incarnation mid-solve so the restart budget
  // drains and the shard permanently fails — the governed fallback must
  // still produce sound verdicts (exact when it completes, a sound
  // subset when it does not).
  const char *AlwaysKill = "worker.scc.solve=always!kill";
  FreshRunDir();
  CO.SpoolDir = RunDir;
  CO.WorkerFailpoints = AlwaysKill;
  CO.FailpointsAllIncarnations = true;
  CO.RestartBudget = 1;
  try {
    shard::ShardRunReport R = shard::runCoordinator(CO);
    St.KillsLanded += R.Restarts + static_cast<uint64_t>(!R.Complete);
    if (!R.UsedFallback) {
      reportViolation(St, Seed, AlwaysKill,
                      "every-incarnation kills did not force the fallback");
    } else if (R.FallbackPartial) {
      // Sound subset: no error site or error verdict the reference lacks,
      // and no Proved claim for a site the reference reports.
      bool Unsound = false;
      for (SiteId S : R.ErrorSites)
        Unsound |= !Ref.ErrorSites.count(S);
      for (uint32_t S = 0; S != R.Verdicts.size(); ++S) {
        if (R.Verdicts[S] == TsVerdict::ErrorReported)
          Unsound |= !Ref.ErrorSites.count(S);
        if (R.Verdicts[S] == TsVerdict::Proved)
          Unsound |= Ref.ErrorSites.count(S) != 0;
      }
      if (Unsound)
        reportViolation(St, Seed, AlwaysKill,
                        "partial fallback verdicts are unsound against "
                        "the uninterrupted run");
    } else if (R.ErrorSites != Ref.ErrorSites || R.Verdicts != Ref.Verdicts) {
      reportViolation(St, Seed, AlwaysKill,
                      "fallback verdicts diverge from the uninterrupted "
                      "run");
    }
  } catch (const std::exception &E) {
    reportViolation(St, Seed, AlwaysKill,
                    std::string("coordinator run failed: ") + E.what());
  }
  fs::remove_all(Base, EC);
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "swift-crashtest: %s\n%s", Err.c_str(),
                 usageText());
    return 2;
  }
  if (O.ShowHelp) {
    std::fputs(usageText(), stdout);
    return 0;
  }

  std::error_code EC;
  std::filesystem::create_directories(O.OutDir, EC);
  if (EC) {
    std::fprintf(stderr, "swift-crashtest: cannot create '%s': %s\n",
                 O.OutDir.c_str(), EC.message().c_str());
    return 2;
  }

  if (O.WorkerBin.empty())
    O.WorkerBin = defaultWorkerBin();
  if (::access(O.WorkerBin.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "swift-crashtest: worker binary '%s' is not executable "
                 "(build swift-shard-worker or pass --worker-bin=)\n",
                 O.WorkerBin.c_str());
    return 2;
  }

  SeedStats St;
  for (uint64_t Seed = O.FirstSeed; Seed != O.FirstSeed + O.Seeds; ++Seed)
    runSeed(Seed, O, St);

  SeedStats Sv;
  for (uint64_t Seed = O.FirstSeed; Seed != O.FirstSeed + O.Seeds; ++Seed)
    runServeSeed(Seed, O, Sv);

  SeedStats Sh;
  for (uint64_t Seed = O.FirstSeed; Seed != O.FirstSeed + O.Seeds; ++Seed)
    runShardSeed(Seed, O, Sh);

  SeedStats Jn;
  for (uint64_t Seed = O.FirstSeed; Seed != O.FirstSeed + O.Seeds; ++Seed)
    runJournalSeed(Seed, O, Jn);

  std::printf("%llu seed(s): %llu crash-tested, %llu completed under the "
              "budget; %llu kill(s) landed, %llu child save(s) ran to "
              "completion; %llu violation(s)\n",
              static_cast<unsigned long long>(St.Tested + St.Completed),
              static_cast<unsigned long long>(St.Tested),
              static_cast<unsigned long long>(St.Completed),
              static_cast<unsigned long long>(St.KillsLanded),
              static_cast<unsigned long long>(St.ChildCompleted),
              static_cast<unsigned long long>(St.Violations));
  std::printf("serve store: %llu seed(s) crash-tested, %llu skipped; "
              "%llu kill(s) landed, %llu child save(s) ran to completion; "
              "%llu violation(s)\n",
              static_cast<unsigned long long>(Sv.Tested),
              static_cast<unsigned long long>(Sv.Completed),
              static_cast<unsigned long long>(Sv.KillsLanded),
              static_cast<unsigned long long>(Sv.ChildCompleted),
              static_cast<unsigned long long>(Sv.Violations));
  std::printf("shard workers: %llu seed(s) crash-tested, %llu skipped; "
              "%llu worker kill(s) landed, %llu schedule(s) never fired; "
              "%llu violation(s)\n",
              static_cast<unsigned long long>(Sh.Tested),
              static_cast<unsigned long long>(Sh.Completed),
              static_cast<unsigned long long>(Sh.KillsLanded),
              static_cast<unsigned long long>(Sh.ChildCompleted),
              static_cast<unsigned long long>(Sh.Violations));
  std::printf("serve journal: %llu seed(s) crash-tested, %llu skipped; "
              "%llu kill(s) landed, %llu child run(s) ran to completion; "
              "%llu violation(s)\n",
              static_cast<unsigned long long>(Jn.Tested),
              static_cast<unsigned long long>(Jn.Completed),
              static_cast<unsigned long long>(Jn.KillsLanded),
              static_cast<unsigned long long>(Jn.ChildCompleted),
              static_cast<unsigned long long>(Jn.Violations));

  if (!O.JsonOut.empty()) {
    auto Campaign = [](const char *Name, const SeedStats &S) {
      auto U = [](uint64_t V) { return std::to_string(V); };
      return std::string("{\"name\":\"") + Name +
             "\",\"seeds_tested\":" + U(S.Tested) +
             ",\"seeds_skipped\":" + U(S.Completed) +
             ",\"kills_landed\":" + U(S.KillsLanded) +
             ",\"child_completed\":" + U(S.ChildCompleted) +
             ",\"violations\":" + U(S.Violations) + "}";
    };
    std::string Json =
        "{\"format\":\"swift-crashtest\",\"version\":1,\"campaigns\":[" +
        Campaign("checkpoint", St) + "," + Campaign("serve-store", Sv) +
        "," + Campaign("shard-workers", Sh) + "," +
        Campaign("serve-journal", Jn) + "]}\n";
    try {
      writeFileAtomic(O.JsonOut, Json, "crashtest.scratch");
    } catch (const std::exception &E) {
      std::fprintf(stderr, "swift-crashtest: cannot write '%s': %s\n",
                   O.JsonOut.c_str(), E.what());
      return 2;
    }
  }

  if (St.Violations || Sv.Violations || Sh.Violations || Jn.Violations)
    return 1;
  if ((St.Tested && !St.KillsLanded) || (Sv.Tested && !Sv.KillsLanded) ||
      (Sh.Tested && !Sh.KillsLanded) || (Jn.Tested && !Jn.KillsLanded))
    // The harness must actually provoke crashes to certify anything.
    std::printf("warning: no kill schedule landed; raise --steps so "
                "checkpoints span more write chunks\n");
  return 0;
}
