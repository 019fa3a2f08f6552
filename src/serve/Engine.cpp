//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "ir/Dumper.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Hashing.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>

using namespace swift;
using namespace swift::serve;

//===----------------------------------------------------------------------===//
// Canonical-text utilities
//===----------------------------------------------------------------------===//

std::vector<ProcBlock> serve::procBlocks(std::string_view CanonText) {
  std::vector<ProcBlock> Out;
  size_t Pos = 0;
  while (Pos < CanonText.size()) {
    size_t Eol = CanonText.find('\n', Pos);
    size_t LineEnd = Eol == std::string_view::npos ? CanonText.size()
                                                   : Eol + 1;
    std::string_view Line = CanonText.substr(Pos, LineEnd - Pos);
    if (Line.substr(0, 5) == "proc ") {
      ProcBlock B;
      B.Begin = Pos;
      size_t NameEnd = Line.find('(', 5);
      if (NameEnd == std::string_view::npos)
        NameEnd = Line.size();
      B.Name = std::string(Line.substr(5, NameEnd - 5));
      // The block runs through the next column-0 "}" line.
      size_t Close = CanonText.find("\n}\n", Pos);
      size_t End = Close == std::string_view::npos ? CanonText.size()
                                                   : Close + 3;
      B.End = End;
      Out.push_back(std::move(B));
      Pos = End;
      continue;
    }
    Pos = LineEnd;
  }
  return Out;
}

namespace {

/// FNV-1a over a byte range, finalized with mix64 so block hashes and
/// fingerprint hashes live in the same well-mixed space.
uint64_t hashBytes(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Bytes)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return mix64(H);
}

/// Per-proc body hashes over the canonical text, keyed by name.
std::unordered_map<std::string, uint64_t>
blockHashes(std::string_view CanonText) {
  std::unordered_map<std::string, uint64_t> Out;
  for (const ProcBlock &B : procBlocks(CanonText))
    Out[B.Name] = hashBytes(CanonText.substr(B.Begin, B.End - B.Begin));
  return Out;
}

Symbol resolveTracked(Program &Prog, const std::string &Name) {
  if (Prog.numSpecs() == 0)
    throw std::runtime_error("swift-serve: program declares no typestate "
                             "spec");
  Symbol Tracked = Name.empty() ? Prog.spec(0).name()
                                : Prog.symbols().intern(Name);
  if (!Prog.specFor(Tracked))
    throw std::runtime_error("swift-serve: no typestate spec for class '" +
                             Prog.symbols().text(Tracked) + "'");
  return Tracked;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

/// Hashes every whole-program oracle answer procedure \p P's own analysis
/// can consume: pointsTo(P, v) for each of its variables (the may-alias
/// oracle is a pure function of these site sets) and modFields(G) for
/// each direct callee G (the mod-ref oracle behind call composition).
/// Everything is keyed by *name* — symbol ids shift across a re-parse of
/// an edited program, names do not. Oracle facts consumed transitively
/// (through a callee's summary) are covered by that callee's own
/// fingerprint plus the recorded dependency edge, so invalidation
/// composes exactly like summary construction does.
uint64_t ServeEngine::fingerprint(const TsContext &C, ProcId P) const {
  const Program &Pr = C.program();
  const SymbolTable &Syms = Pr.symbols();
  const Procedure &Proc = Pr.proc(P);
  uint64_t H = 0x5eedf1f0;
  for (Symbol V : Proc.vars()) {
    H = hashCombine(H, hashBytes(Syms.text(V)));
    for (SiteId S : C.aliases().pointsTo(P, V))
      H = hashCombine(H, S);
    H = hashCombine(H, 0xa11a5);
  }
  for (ProcId G : C.callGraph().callees(P)) {
    H = hashCombine(H, hashBytes(Syms.text(Pr.proc(G).name())));
    std::vector<std::string> Fields;
    for (Symbol F : C.modRef().modFields(G))
      Fields.push_back(Syms.text(F));
    std::sort(Fields.begin(), Fields.end());
    for (const std::string &F : Fields)
      H = hashCombine(H, hashBytes(F));
    H = hashCombine(H, 0xca11ee);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ServeEngine::ServeEngine(std::string_view ProgramText, EngineOptions Opts)
    : Opt(std::move(Opts)) {
  if (!Opt.JournalPath.empty())
    Jrnl = std::make_unique<Journal>(Opt.JournalPath);
  Prog = parseProgramText(ProgramText);
  Symbol Tracked = resolveTracked(*Prog, Opt.TrackedClass);
  TrackedName = Prog->symbols().text(Tracked);
  Ctx = std::make_unique<TsContext>(*Prog, Tracked);
  Text = programToText(*Prog);
  std::unordered_map<std::string, uint64_t> Hashes = blockHashes(Text);
  PS.resize(Prog->numProcs());
  for (ProcId P = 0; P != Prog->numProcs(); ++P) {
    PS[P].BodyHash = Hashes.at(Prog->symbols().text(Prog->proc(P).name()));
    PS[P].OracleFp = fingerprint(*Ctx, P);
  }
}

ServeEngine::ServeEngine(const FromStore &From, EngineOptions Opts)
    : Opt(std::move(Opts)) {
  if (!Opt.JournalPath.empty())
    Jrnl = std::make_unique<Journal>(Opt.JournalPath);
  ParsedStore Store = loadStoreFile(From.Path);
  if (!Opt.TrackedClass.empty() && Opt.TrackedClass != Store.TrackedClass)
    throw std::runtime_error("swift-serve-store: store tracks class '" +
                             Store.TrackedClass + "', requested '" +
                             Opt.TrackedClass + "'");
  Prog = std::move(Store.Prog);
  Symbol Tracked = resolveTracked(*Prog, Store.TrackedClass);
  TrackedName = Prog->symbols().text(Tracked);
  Ctx = std::make_unique<TsContext>(*Prog, Tracked);
  Text = programToText(*Prog);
  std::unordered_map<std::string, uint64_t> Hashes = blockHashes(Text);
  PS.resize(Prog->numProcs());
  for (StoredProc &SP : Store.Procs) {
    ProcId P = Prog->procId(Prog->symbols().intern(SP.Name));
    PS[P].BodyHash = Hashes.at(SP.Name);
    PS[P].OracleFp = fingerprint(*Ctx, P);
    // Adopt the stored summary only when the stored hash and fingerprint
    // match what this build computes over the embedded program — a store
    // from a different codec epoch silently degrades to a cold start
    // instead of serving stale facts.
    if (!SP.HasSummary || SP.BodyHash != PS[P].BodyHash ||
        SP.OracleFp != PS[P].OracleFp)
      continue;
    std::vector<ProcId> Deps;
    bool DepsOk = true;
    for (const std::string &D : SP.Deps) {
      ProcId G = Prog->procId(Prog->symbols().intern(D));
      if (G == InvalidProc) {
        DepsOk = false;
        break;
      }
      Deps.push_back(G);
    }
    if (!DepsOk)
      continue;
    std::sort(Deps.begin(), Deps.end());
    Deps.erase(std::unique(Deps.begin(), Deps.end()), Deps.end());
    PS[P].Valid = true;
    PS[P].Sum = std::move(SP.Sum);
    PS[P].Deps = std::move(Deps);
  }
}

ServeEngine::~ServeEngine() = default;

//===----------------------------------------------------------------------===//
// Solving
//===----------------------------------------------------------------------===//

EditResult ServeEngine::solveAndCommit(std::unique_ptr<Program> NewProg,
                                       std::unique_ptr<TsContext> NewCtx,
                                       std::string NewText,
                                       std::vector<ProcState> NewPS,
                                       size_t Invalidated, uint64_t DeadlineMs,
                                       const Journal::Record *Rec,
                                       bool AutoSave) {
  const Program &Pr = *NewProg;
  const TsContext &C = *NewCtx;
  EditResult R;
  R.Invalidated = Invalidated;

  std::vector<ProcId> Reach = C.callGraph().reachableFrom(Pr.mainProc());
  std::vector<ProcId> Need;
  for (ProcId P : Reach)
    if (!NewPS[P].Valid)
      Need.push_back(P);
  R.Reused = Reach.size() - Need.size();
  R.Reanalyzed = Need.size();

  if (!Need.empty()) {
    obs::TraceSpan Span("serve", "serve.solve",
                        {"need", static_cast<uint64_t>(Need.size())});
    GovernorLimits Limits;
    Limits.MaxSteps = Opt.MaxStepsPerRequest;
    // A request deadline rides the same budget the step cap does: the
    // solver's periodic wall-clock poll trips it, the solve fails
    // transactionally, and the caller serves the retained verdicts as a
    // sound-but-stale degraded answer.
    if (DeadlineMs != 0)
      Limits.MaxSeconds = static_cast<double>(DeadlineMs) / 1000.0;
    ResourceGovernor Gov(Limits);
    Stats Stat;
    RelationalSolver<TsAnalysis> Solver = makePureBuSolver<TsAnalysis>(
        C, Gov.budget(), Stat, /*Threads=*/1, Opt.MaxRelsPerPoint, &Gov);
    for (ProcId P = 0; P != Pr.numProcs(); ++P)
      if (NewPS[P].Valid)
        Solver.installSummary(P, NewPS[P].Sum);
    // Threads=1, so the recorder needs no synchronization.
    std::vector<std::vector<ProcId>> RecDeps(Pr.numProcs());
    Solver.setDepRecorder([&RecDeps](ProcId Caller, ProcId Callee) {
      RecDeps[Caller].push_back(Callee);
    });
    if (!Solver.run(Need)) {
      R.BudgetExhausted = true;
      R.Degraded = DeadlineMs != 0;
      if (R.Degraded)
        R.Error = "request deadline (" + std::to_string(DeadlineMs) +
                  " ms) or resource budget exceeded after " +
                  std::to_string(Gov.budget().steps()) +
                  " steps; state unchanged, pre-edit verdicts remain "
                  "the sound answer";
      else
        R.Error = "per-request resource budget exhausted (step or "
                  "relation cap) after " +
                  std::to_string(Gov.budget().steps()) +
                  " steps; state unchanged";
      return R;
    }
    for (ProcId P : Need) {
      NewPS[P].Valid = true;
      NewPS[P].Sum = Solver.summary(P);
      std::vector<ProcId> &D = RecDeps[P];
      std::sort(D.begin(), D.end());
      D.erase(std::unique(D.begin(), D.end()), D.end());
      NewPS[P].Deps = std::move(D);
    }
  }

  // Durable-then-visible: the journal record hits stable storage before
  // the commit below, so every state a client was ever told about is
  // reconstructible from store + journal. An append failure rejects the
  // edit with the engine untouched.
  if (Rec) {
    try {
      Jrnl->append(*Rec);
    } catch (const std::exception &E) {
      R.Ok = false;
      R.Error = std::string("journal append failed; edit rejected: ") +
                E.what();
      return R;
    }
  }

  // Commit. Destroy the old context before the old program (the context
  // holds references into it): the moves below run in exactly that order.
  Ctx = std::move(NewCtx);
  Prog = std::move(NewProg);
  Text = std::move(NewText);
  PS = std::move(NewPS);
  Complete = true;
  deriveErrors();
  R.Ok = true;

  if (obs::metricsEnabled()) {
    static obs::Histogram *Reanalyzed =
        obs::MetricsRegistry::instance().histogram("serve.reanalyzed_procs");
    static obs::Histogram *Reused =
        obs::MetricsRegistry::instance().histogram("serve.reused_procs");
    static obs::Histogram *Invd =
        obs::MetricsRegistry::instance().histogram("serve.invalidated_procs");
    Reanalyzed->record(R.Reanalyzed);
    Reused->record(R.Reused);
    Invd->record(R.Invalidated);
  }

  if (AutoSave && !Opt.StorePath.empty()) {
    try {
      saveStore();
    } catch (const std::exception &E) {
      R.Warning = std::string("store auto-save failed: ") + E.what();
    }
  }
  return R;
}

EditResult ServeEngine::solveInitial() {
  if (Complete) {
    EditResult R;
    R.Ok = true;
    R.Reused = PS.size();
    return R;
  }
  // Re-parse our own canonical text so the new Program/Context pair can be
  // committed wholesale by the shared path; summaries (from a warm start)
  // must be translated into the fresh symbol table like any retained set.
  std::unique_ptr<Program> NewProg = parseProgramText(Text);
  Symbol Tracked = NewProg->symbols().intern(TrackedName);
  auto NewCtx = std::make_unique<TsContext>(*NewProg, Tracked);
  std::vector<ProcState> NewPS(PS.size());
  for (ProcId P = 0; P != PS.size(); ++P) {
    NewPS[P].BodyHash = PS[P].BodyHash;
    NewPS[P].OracleFp = PS[P].OracleFp;
    if (!PS[P].Valid)
      continue;
    NewPS[P].Valid = true;
    NewPS[P].Deps = PS[P].Deps;
    NewPS[P].Sum = parseSummaryText(*NewProg, NewCtx->spec().numStates(),
                                    summaryToText(*Prog, PS[P].Sum));
  }
  // The initial solve is startup, not client traffic: no deadline, no
  // journal record, and it does auto-save (it establishes the baseline
  // store the journal is replayed on top of).
  return solveAndCommit(std::move(NewProg), std::move(NewCtx), Text,
                        std::move(NewPS), /*Invalidated=*/0,
                        /*DeadlineMs=*/0, /*Rec=*/nullptr,
                        /*AutoSave=*/true);
}

//===----------------------------------------------------------------------===//
// Edits
//===----------------------------------------------------------------------===//

namespace {

EditResult editError(std::string Msg) {
  EditResult R;
  R.Error = std::move(Msg);
  return R;
}

} // namespace

EditResult ServeEngine::applyEdit(const std::string &ProcName,
                                  std::string_view BodyText,
                                  uint64_t DeadlineMs) {
  return applyEditImpl(ProcName, BodyText,
                       DeadlineMs != 0 ? DeadlineMs : Opt.RequestDeadlineMs,
                       /*JournalAppend=*/true);
}

EditResult ServeEngine::applyEditImpl(const std::string &ProcName,
                                      std::string_view BodyText,
                                      uint64_t DeadlineMs,
                                      bool JournalAppend) {
  if (!Complete)
    return editError("engine is not solved yet; run the initial solve "
                     "before editing");
  obs::TraceSpan Span("serve", "serve.edit");

  // Locate the block to replace in the canonical text.
  std::vector<ProcBlock> Blocks = procBlocks(Text);
  const ProcBlock *Target = nullptr;
  for (const ProcBlock &B : Blocks)
    if (B.Name == ProcName)
      Target = &B;
  if (!Target)
    return editError("unknown procedure '" + ProcName + "'");

  // The replacement must be a single block for the same procedure.
  std::string Body(BodyText);
  while (!Body.empty() && (Body.back() == '\n' || Body.back() == ' '))
    Body.pop_back();
  Body += '\n';
  std::vector<ProcBlock> BodyBlocks = procBlocks(Body);
  if (BodyBlocks.size() != 1 || BodyBlocks[0].Begin != 0 ||
      BodyBlocks[0].End != Body.size())
    return editError("edit body must be exactly one `proc` block");
  if (BodyBlocks[0].Name != ProcName)
    return editError("edit body declares procedure '" + BodyBlocks[0].Name +
                     "', expected '" + ProcName + "'");

  std::string Spliced = Text.substr(0, Target->Begin) + Body +
                        Text.substr(Target->End);
  std::unique_ptr<Program> NewProg;
  try {
    NewProg = parseProgramText(Spliced);
  } catch (const std::exception &E) {
    return editError(std::string("edit rejected: ") + E.what());
  }
  if (NewProg->numProcs() != Prog->numProcs() ||
      NewProg->numSpecs() != Prog->numSpecs())
    return editError("edit rejected: procedure replacement must not add or "
                     "remove procedures or typestate specs");
  for (ProcId P = 0; P != Prog->numProcs(); ++P)
    if (NewProg->symbols().text(NewProg->proc(P).name()) !=
        Prog->symbols().text(Prog->proc(P).name()))
      return editError("edit rejected: procedure order changed");

  Symbol Tracked = NewProg->symbols().intern(TrackedName);
  if (!NewProg->specFor(Tracked))
    return editError("edit rejected: tracked class spec disappeared");
  auto NewCtx = std::make_unique<TsContext>(*NewProg, Tracked);
  std::string NewText = programToText(*NewProg);

  // New body hashes and oracle fingerprints; seeds are the procedures
  // whose summary inputs changed in any way the solver could observe.
  std::unordered_map<std::string, uint64_t> Hashes = blockHashes(NewText);
  std::vector<ProcState> NewPS(Prog->numProcs());
  std::vector<uint8_t> Still(Prog->numProcs(), 0);
  std::deque<ProcId> Queue;
  for (ProcId P = 0; P != Prog->numProcs(); ++P) {
    NewPS[P].BodyHash =
        Hashes.at(NewProg->symbols().text(NewProg->proc(P).name()));
    NewPS[P].OracleFp = fingerprint(*NewCtx, P);
    Still[P] = PS[P].Valid && NewPS[P].BodyHash == PS[P].BodyHash &&
               NewPS[P].OracleFp == PS[P].OracleFp;
    if (PS[P].Valid && !Still[P])
      Queue.push_back(P);
  }

  // Upward closure over the recorded dependency edges: reverse adjacency
  // (callee -> callers whose summaries read it), then BFS from the seeds.
  std::vector<std::vector<ProcId>> Rev(Prog->numProcs());
  for (ProcId P = 0; P != Prog->numProcs(); ++P)
    if (PS[P].Valid)
      for (ProcId G : PS[P].Deps)
        Rev[G].push_back(P);
  while (!Queue.empty()) {
    ProcId G = Queue.front();
    Queue.pop_front();
    for (ProcId P : Rev[G])
      if (Still[P]) {
        Still[P] = 0;
        Queue.push_back(P);
      }
  }

  size_t Invalidated = 0;
  for (ProcId P = 0; P != Prog->numProcs(); ++P) {
    if (PS[P].Valid && !Still[P])
      ++Invalidated;
    if (!Still[P])
      continue;
    NewPS[P].Valid = true;
    NewPS[P].Deps = PS[P].Deps; // ProcIds are stable across an edit.
    try {
      NewPS[P].Sum = parseSummaryText(*NewProg, NewCtx->spec().numStates(),
                                      summaryToText(*Prog, PS[P].Sum));
    } catch (const std::exception &E) {
      // A retained summary that fails translation indicates a codec bug,
      // not a bad edit; refuse rather than re-analyze around it.
      return editError(std::string("internal: summary translation for '") +
                       Prog->symbols().text(Prog->proc(P).name()) +
                       "' failed: " + E.what());
    }
  }

  // The journal logs the *normalized* body (the exact bytes spliced), so
  // replay reconstructs the same canonical text byte for byte. Replayed
  // records (JournalAppend = false) are already durable and never
  // re-appended; auto-save stays off whenever a journal exists —
  // durability is the append's job and the store only moves on compact().
  Journal::Record Rec{ProcName, Body};
  bool Append = JournalAppend && Jrnl != nullptr;
  return solveAndCommit(std::move(NewProg), std::move(NewCtx),
                        std::move(NewText), std::move(NewPS), Invalidated,
                        DeadlineMs, Append ? &Rec : nullptr,
                        /*AutoSave=*/JournalAppend && !Jrnl);
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

EditResult ServeEngine::replayJournal(size_t *NumReplayed) {
  if (NumReplayed)
    *NumReplayed = 0;
  EditResult R;
  R.Ok = true;
  if (!Jrnl)
    return R;
  std::vector<Journal::Record> Recs = Jrnl->replayAndRepair();
  for (const Journal::Record &Rec : Recs) {
    // No deadline: a logged edit was accepted once and must be accepted
    // again (the step cap still guards against pathological blow-ups).
    R = applyEditImpl(Rec.ProcName, Rec.Body, /*DeadlineMs=*/0,
                      /*JournalAppend=*/false);
    if (!R.Ok) {
      R.Error = "journal replay: record for '" + Rec.ProcName +
                "' failed: " + R.Error;
      return R;
    }
    if (NumReplayed)
      ++*NumReplayed;
  }
  return R;
}

void ServeEngine::resetJournal() {
  if (Jrnl)
    Jrnl->reset();
}

void ServeEngine::compact() {
  // Order matters for the crash contract: the store snapshot must be
  // durably in place (writeFileAtomic) before the log that reproduces it
  // is emptied. A kill between the two leaves store = new + journal =
  // old, and replay onto the new store is idempotent (every record's
  // body already matches, so nothing seeds).
  saveStore();
  resetJournal();
}

//===----------------------------------------------------------------------===//
// Verdicts
//===----------------------------------------------------------------------===//

/// Pure BU's read-out (readMainSummary), reading the engine's retained
/// summary of main instead of a fresh solver's.
void ServeEngine::deriveErrors() {
  Errors.clear();
  readMainSummary(*Ctx, PS[Prog->mainProc()].Sum, Errors);
}

TsVerdict ServeEngine::verdict(SiteId S) const {
  if (S >= Prog->numSites())
    return TsVerdict::Proved;
  return tsVerdict(*Ctx, S, Errors, /*Partial=*/!Complete);
}

bool ServeEngine::trackedSite(SiteId S) const {
  return S < Prog->numSites() && Ctx->isTrackedSite(S);
}

size_t ServeEngine::numProcs() const { return Prog->numProcs(); }

size_t ServeEngine::numSummaries() const {
  size_t N = 0;
  for (const ProcState &P : PS)
    N += P.Valid ? 1 : 0;
  return N;
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

void ServeEngine::saveStore(const std::string &Path) const {
  std::vector<StoredProc> Procs;
  Procs.reserve(PS.size());
  for (ProcId P = 0; P != PS.size(); ++P) {
    StoredProc SP;
    SP.Name = Prog->symbols().text(Prog->proc(P).name());
    SP.BodyHash = PS[P].BodyHash;
    SP.OracleFp = PS[P].OracleFp;
    SP.HasSummary = PS[P].Valid;
    if (PS[P].Valid) {
      SP.Sum = PS[P].Sum;
      for (ProcId G : PS[P].Deps)
        SP.Deps.push_back(Prog->symbols().text(Prog->proc(G).name()));
    }
    Procs.push_back(std::move(SP));
  }
  saveStoreFile(Path, *Prog, TrackedName, Procs);
}

void ServeEngine::saveStore() const {
  if (Opt.StorePath.empty())
    throw std::runtime_error("swift-serve: no store path configured");
  saveStore(Opt.StorePath);
}
