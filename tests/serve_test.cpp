//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the swift-serve incremental engine: dependency-driven
/// invalidation (an edit to one leaf re-analyzes strictly fewer
/// procedures than a from-scratch run — the PR's acceptance assertion),
/// transactional edit rejection, per-request budget enforcement, the
/// summary store round trip, the JSON request loop, an
/// incremental-vs-from-scratch coincidence sweep over generated edit
/// sequences, the crash-durable edit journal (framing, torn-tail repair,
/// crash-replay recovery, compaction), and the overload protections
/// (request deadlines, admission-gate shedding, graceful drain).
///
//===----------------------------------------------------------------------===//

#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "serve/Journal.h"
#include "serve/Server.h"
#include "serve/Store.h"

#include "genprog/Fuzzer.h"
#include "ir/Dumper.h"
#include "support/Frame.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace swift;
using namespace swift::serve;

namespace {

/// main -> {f, g}; f allocates @0 and passes it to leaf h (opens it,
/// legal); g allocates @1 and closes it from the initial state (error).
/// Editing g must leave f's and h's summaries untouched.
const char *DiamondText = R"(# swift-ir v1
typestate File {
  states closed opened err
  init closed
  error err
  method close = err closed err
  method open = opened err err
}
proc h(x) entry 0 exit 1 nodes 3 {
  0: nop -> 2
  1: nop ->
  2: x.open() -> 1
}
proc f() entry 0 exit 1 nodes 4 {
  0: nop -> 2
  1: nop ->
  2: v = new File @0 -> 3
  3: call h(v) -> 1
}
proc g() entry 0 exit 1 nodes 4 {
  0: nop -> 2
  1: nop ->
  2: w = new File @1 -> 3
  3: w.close() -> 1
}
proc main() entry 0 exit 1 nodes 4 {
  0: nop -> 2
  1: nop ->
  2: call f() -> 3
  3: call g() -> 1
}
main main
)";

std::string gBlockWith(const ServeEngine &E, const std::string &OldCmd,
                       const std::string &NewCmd) {
  std::vector<ProcBlock> Blocks = procBlocks(E.programText());
  for (const ProcBlock &B : Blocks) {
    if (B.Name != "g")
      continue;
    std::string Body =
        E.programText().substr(B.Begin, B.End - B.Begin);
    size_t At = Body.find(OldCmd);
    EXPECT_NE(At, std::string::npos);
    Body.replace(At, OldCmd.size(), NewCmd);
    return Body;
  }
  ADD_FAILURE() << "no proc g in canonical text";
  return {};
}

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

std::string readAll(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  return Buf.str();
}

void writeAll(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Bytes;
}

TEST(ServeEngine, InitialSolveFindsTheErrorSite) {
  ServeEngine E(DiamondText, EngineOptions());
  EditResult R = E.solveInitial();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(E.solved());
  EXPECT_EQ(R.Reanalyzed, 4u);
  EXPECT_EQ(E.errorSites(), std::set<SiteId>{1});
  EXPECT_EQ(E.verdict(0), TsVerdict::Proved);
  EXPECT_EQ(E.verdict(1), TsVerdict::ErrorReported);
  EXPECT_TRUE(E.trackedSite(0));
  EXPECT_FALSE(E.trackedSite(99));
}

TEST(ServeEngine, LeafEditReanalyzesStrictlyFewerProcsThanScratch) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);

  EditResult R =
      E.applyEdit("g", gBlockWith(E, "3: w.close() -> 1", "3: nop -> 1"));
  ASSERT_TRUE(R.Ok) << R.Error;

  // The acceptance assertion: only g and its dependents (main) re-ran;
  // f and h carried across. From scratch would re-run all 4.
  EXPECT_EQ(R.Invalidated, 2u);
  EXPECT_EQ(R.Reanalyzed, 2u);
  EXPECT_EQ(R.Reused, 2u);
  EXPECT_LT(R.Reanalyzed, E.numProcs());

  // And the verdicts match a from-scratch run on the edited program.
  EXPECT_TRUE(E.errorSites().empty());
  ServeEngine Fresh(E.programText(), EngineOptions());
  ASSERT_TRUE(Fresh.solveInitial().Ok);
  EXPECT_EQ(Fresh.errorSites(), E.errorSites());
  EXPECT_EQ(Fresh.programText(), E.programText());
}

TEST(ServeEngine, RejectedEditsLeaveTheEngineUntouched) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);
  const std::string Before = E.programText();

  // Unknown procedure.
  EXPECT_FALSE(E.applyEdit("nosuch", "proc nosuch() {}").Ok);
  // Unparseable body.
  EXPECT_FALSE(E.applyEdit("g", "proc g() entry 0 {{{").Ok);
  // Renaming the procedure is not a replacement.
  std::string Renamed = gBlockWith(E, "proc g()", "proc g2()");
  EXPECT_FALSE(E.applyEdit("g", Renamed).Ok);

  EXPECT_EQ(E.programText(), Before);
  EXPECT_TRUE(E.solved());
  EXPECT_EQ(E.errorSites(), std::set<SiteId>{1});

  // A valid edit still goes through after the rejections.
  EXPECT_TRUE(
      E.applyEdit("g", gBlockWith(E, "3: w.close() -> 1", "3: nop -> 1"))
          .Ok);
  EXPECT_TRUE(E.errorSites().empty());
}

TEST(ServeEngine, BudgetExhaustionIsReportedAndTransactional) {
  EngineOptions Small;
  Small.MaxStepsPerRequest = 1;
  ServeEngine E(DiamondText, Small);
  EditResult R = E.solveInitial();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_FALSE(E.solved());
  EXPECT_EQ(E.verdict(1), TsVerdict::Unresolved);

  // The same engine succeeds once the per-request budget is lifted
  // through a fresh instance (options are fixed at construction).
  ServeEngine Big(DiamondText, EngineOptions());
  EXPECT_TRUE(Big.solveInitial().Ok);
}

TEST(ServeStore, RoundTripWarmStartReusesEverySummary) {
  std::string Path = tempPath("serve_store_roundtrip.bin");
  std::set<SiteId> ColdErrors;
  std::string ColdText;
  {
    ServeEngine E(DiamondText, EngineOptions());
    ASSERT_TRUE(E.solveInitial().Ok);
    ColdErrors = E.errorSites();
    ColdText = E.programText();
    E.saveStore(Path);
  }
  ServeEngine W(ServeEngine::FromStore{Path}, EngineOptions());
  EditResult R = W.solveInitial();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Reanalyzed, 0u);
  EXPECT_EQ(R.Reused, 4u);
  EXPECT_EQ(W.errorSites(), ColdErrors);
  EXPECT_EQ(W.programText(), ColdText);
  std::remove(Path.c_str());
}

TEST(ServeStore, GoldenStoreWarmStartReusesEverySummary) {
  // An earlier build wrote this store (SWIFT_CORPUS_DIR is injected by
  // tests/CMakeLists.txt): every stored oracle fingerprint must still
  // verify against the points-to sets computed today.
  ServeEngine W(ServeEngine::FromStore{SWIFT_CORPUS_DIR
                                       "/golden.swiftstore"},
                EngineOptions());
  EditResult R = W.solveInitial();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Reanalyzed, 0u);
  EXPECT_EQ(R.Reused, 6u);
}

TEST(ServeStore, CorruptStoreIsRejected) {
  std::string Path = tempPath("serve_store_corrupt.bin");
  {
    ServeEngine E(DiamondText, EngineOptions());
    ASSERT_TRUE(E.solveInitial().Ok);
    E.saveStore(Path);
  }
  // Flip one payload byte; the CRC trailer must catch it.
  ParsedStore Good = loadStoreFile(Path);
  std::string Bytes;
  {
    std::ifstream IS(Path, std::ios::binary);
    std::ostringstream Buf;
    Buf << IS.rdbuf();
    Bytes = Buf.str();
  }
  Bytes[Bytes.size() / 2] ^= 0x20;
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS << Bytes;
  }
  EXPECT_THROW(loadStoreFile(Path), LoadError);
  std::remove(Path.c_str());
}

TEST(ServeStore, OutOfRangeTypestatesWithValidCrcAreCorrupt) {
  // Re-frame mutated payloads: the CRC validates (it is computed over the
  // mutant), so only the summary grammar can object. The relation
  // algebra indexes iota by typestate and iota by iota without a bounds
  // check, so each of these must be rejected at load.
  std::string Path = tempPath("serve_store_tstate.bin");
  {
    ServeEngine E(DiamondText, EngineOptions());
    ASSERT_TRUE(E.solveInitial().Ok);
    E.saveStore(Path);
  }
  const std::string Bytes = readAll(Path);
  std::remove(Path.c_str());
  const std::string Magic = "swift-serve-store v1 ";
  const std::string Payload(frame::decode(Magic, Bytes));
  ASSERT_EQ(frame::encode(Magic, Payload), Bytes);

  // Rewrites the \p Width bytes after every \p Anchor via \p Edit.
  auto Mutated = [&](const std::string &Anchor, size_t Width,
                     std::string (*Edit)(const std::string &Old)) {
    std::string P = Payload;
    size_t Hits = 0;
    for (size_t At = P.find(Anchor); At != std::string::npos;
         At = P.find(Anchor, At + 1), ++Hits)
      P.replace(At + Anchor.size(), Width,
                Edit(P.substr(At + Anchor.size(), Width)));
    EXPECT_GT(Hits, 0u) << Anchor;
    return frame::encode(Magic, P);
  };
  auto ExpectCorrupt = [](const std::string &Image, const char *What) {
    try {
      (void)decodeStore(Image);
      ADD_FAILURE() << What << " accepted";
    } catch (const LoadError &E) {
      EXPECT_EQ(E.kind(), LoadErrorKind::Corrupt) << What << ": " << E.what();
    }
  };
  // File has three states, so every iota reads "iota 3 d d d". A
  // one-entry iota, padded to the same byte length:
  ExpectCorrupt(Mutated(" iota ", 7,
                        [](const std::string &Old) {
                          return "1 " + Old.substr(2, 1) + "    ";
                        }),
                "short iota");
  // An iota entry past the spec's last state:
  ExpectCorrupt(Mutated(" iota ", 7,
                        [](const std::string &Old) {
                          return Old.substr(0, 6) + "7";
                        }),
                "iota entry 7");
  // An alloc relation ("A <site> <typestate> ...") whose state carries
  // typestate 7 of 3:
  ExpectCorrupt(Mutated("\nA ", 3,
                        [](const std::string &Old) {
                          return Old.substr(0, 2) + "7";
                        }),
                "alloc typestate 7");
}

TEST(ServeStore, SummaryCodecRoundTripsAcrossPrograms) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);
  // Encode against the engine's program, decode into a freshly parsed
  // copy (different Symbol ids), re-encode: the texts must agree.
  std::unique_ptr<Program> Copy = parseProgramText(E.programText());
  std::vector<ProcBlock> Blocks = procBlocks(E.programText());
  ASSERT_FALSE(Blocks.empty());
  std::string Path = tempPath("serve_store_codec.bin");
  E.saveStore(Path);
  ParsedStore S = loadStoreFile(Path);
  for (const StoredProc &P : S.Procs) {
    if (!P.HasSummary)
      continue;
    std::string T1 = summaryToText(*S.Prog, P.Sum);
    TsSummary Re = parseSummaryText(*Copy, Copy->spec(0).numStates(), T1);
    EXPECT_EQ(summaryToText(*Copy, Re), T1) << "proc " << P.Name;
  }
  std::remove(Path.c_str());
}

TEST(ServeServer, ProtocolSessionSurvivesMalformedRequests) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);

  std::istringstream In(
      "{\"op\":\"stats\"}\n"
      "not json at all\n"
      "{\"op\":\"query\",\"site\":1}\n"
      "{\"op\":\"query\"}\n"
      "{\"op\":\"frobnicate\"}\n"
      "{\"op\":\"query_all\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"stats\"}\n"); // after shutdown: must not be answered
  std::ostringstream Out;
  EXPECT_EQ(serveLines(E, In, Out), 0);

  std::istringstream Lines(Out.str());
  std::string L;
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"procs\":4"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"ok\":false"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"verdict\":\"error\""), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"ok\":false"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("unknown op"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"error_sites\":[1]"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"ok\":true"), std::string::npos);
  EXPECT_FALSE(std::getline(Lines, L)) << "served past shutdown: " << L;
}

TEST(ServeServer, NonIntegerNumbersAreBadRequests) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);
  // Each of these once named another site (or, for 1e300, was an
  // undefined double-to-integer cast); the fuzz_edit and deadline values
  // once ran as seed 0, k 1 and a 1 ms deadline.
  const char *Bad[] = {
      R"({"op":"query","site":4294967296})",
      R"({"op":"query","site":-1})",
      R"({"op":"query","site":1e300})",
      R"({"op":"query","site":1.9})",
      R"({"op":"query","site":"1"})",
      R"({"op":"fuzz_edit","seed":-3,"k":1})",
      R"({"op":"fuzz_edit","seed":3,"k":1.5})",
      R"({"op":"fuzz_edit","seed":3,"k":1,"deadline_ms":1.5})",
      R"({"op":"edit","proc":"g","body":"","deadline_ms":-1})",
  };
  for (const char *Req : Bad) {
    std::istringstream In(std::string(Req) + "\n");
    std::ostringstream Out;
    EXPECT_EQ(serveLines(E, In, Out), 0);
    EXPECT_NE(Out.str().find("\"code\":\"bad_request\""), std::string::npos)
        << Req << " -> " << Out.str();
  }
  // Rejected requests applied nothing; the edges of the range still
  // answer.
  std::istringstream In("{\"op\":\"query\",\"site\":1}\n"
                        "{\"op\":\"query\",\"site\":4294967295}\n");
  std::ostringstream Out;
  EXPECT_EQ(serveLines(E, In, Out), 0);
  EXPECT_EQ(Out.str(),
            "{\"ok\":true,\"site\":1,\"verdict\":\"error\",\"tracked\":true}\n"
            "{\"ok\":true,\"site\":4294967295,\"verdict\":\"proved\","
            "\"tracked\":false}\n");
}

TEST(ServeServer, EditThroughTheProtocolUpdatesVerdicts) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);
  std::string Body = gBlockWith(E, "3: w.close() -> 1", "3: nop -> 1");
  // JSON-escape the body (quotes cannot appear in swift-ir text).
  std::string Escaped;
  for (char C : Body)
    if (C == '\n')
      Escaped += "\\n";
    else
      Escaped += C;
  std::istringstream In("{\"op\":\"edit\",\"proc\":\"g\",\"body\":\"" +
                        Escaped + "\"}\n{\"op\":\"query_all\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(serveLines(E, In, Out), 0);
  EXPECT_NE(Out.str().find("\"reused\":2"), std::string::npos);
  EXPECT_NE(Out.str().find("\"error_sites\":[]"), std::string::npos);
}

TEST(ServeIncremental, EditSequencesCoincideWithFromScratch) {
  // A quick local slice of the difftest oracle: apply generated edit
  // chains to fuzz programs and demand verdict coincidence with a
  // from-scratch engine on the final text (the CI campaign runs 40+
  // seeds through swift-difftest's incremental-coincidence check).
  // Small programs and a tight relation cap: relation blow-up seeds are
  // skipped exactly like the BU-agreement oracle skips BU timeouts.
  EngineOptions EO;
  EO.MaxRelsPerPoint = 1 << 12;
  unsigned Edited = 0, Solved = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    FuzzConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumProcs = 3;
    Cfg.StmtsPerProc = 6;
    Cfg.NumVars = 3;
    Cfg.MaxDepth = 1;
    std::unique_ptr<Program> Prog = generateFuzzProgram(Cfg);
    ServeEngine E(programToText(*Prog), EO);
    if (!E.solveInitial().Ok)
      continue; // relation blow-up: not an incremental-engine defect
    ++Solved;
    for (uint64_t K = 0; K != 3; ++K) {
      std::optional<FuzzEdit> Edit =
          makeFuzzEdit(E.programText(), Seed, K);
      if (!Edit)
        break;
      EditResult R = E.applyEdit(Edit->ProcName, Edit->Body);
      if (R.BudgetExhausted)
        continue; // transactional: state unchanged, next edit is fine
      ASSERT_TRUE(R.Ok) << "seed " << Seed << " edit " << K << ": "
                        << R.Error;
      ++Edited;
    }
    ServeEngine Fresh(E.programText(), EO);
    if (!Fresh.solveInitial().Ok)
      continue; // the final program itself blows up from scratch
    EXPECT_EQ(Fresh.errorSites(), E.errorSites()) << "seed " << Seed;
    for (SiteId S = 0; S != E.program().numSites(); ++S)
      EXPECT_EQ(Fresh.verdict(S), E.verdict(S))
          << "seed " << Seed << " site " << S;

    // The fresh engine is pure BU on the final program: its error sites
    // and verdicts are runTypestateBu's.
    std::unique_ptr<Program> Final = parseProgramText(E.programText());
    TsContext Ctx(*Final, Final->symbols().intern(Fresh.trackedClass()));
    TsRunResult Bu = runTypestateBu(Ctx);
    ASSERT_FALSE(Bu.Timeout) << "seed " << Seed;
    EXPECT_EQ(Fresh.errorSites(), Bu.ErrorSites) << "seed " << Seed;
    for (SiteId S = 0; S != Final->numSites(); ++S)
      EXPECT_EQ(Fresh.verdict(S),
                Ctx.isTrackedSite(S) && Bu.ErrorSites.count(S)
                    ? TsVerdict::ErrorReported
                    : TsVerdict::Proved)
          << "seed " << Seed << " site " << S;
  }
  EXPECT_GT(Solved, 0u) << "every fuzz seed blew up";
  EXPECT_GT(Edited, 0u) << "edit generator produced nothing";
}

TEST(ServeEditGen, IsDeterministicAndStructurePreserving) {
  ServeEngine E(DiamondText, EngineOptions());
  for (uint64_t K = 0; K != 16; ++K) {
    std::optional<FuzzEdit> A = makeFuzzEdit(E.programText(), 7, K);
    std::optional<FuzzEdit> B = makeFuzzEdit(E.programText(), 7, K);
    ASSERT_TRUE(A.has_value());
    ASSERT_TRUE(B.has_value());
    EXPECT_EQ(A->ProcName, B->ProcName);
    EXPECT_EQ(A->Body, B->Body);
    // Never an alloc rewrite: both sites survive every generated edit.
    EXPECT_NE(A->Body.find("proc " + A->ProcName), std::string::npos);
  }
}

TEST(ServeJournal, AppendReplayRoundTripMatchesTheEncoding) {
  std::string Path = tempPath("serve_journal_roundtrip.log");
  std::remove(Path.c_str());
  Journal J(Path);
  EXPECT_TRUE(J.replayAndRepair().empty()); // missing file = empty log

  Journal::Record A{"f", "proc f() entry 0 exit 1 nodes 2 {\n}\n"};
  Journal::Record B{"g", "body with\nembedded newlines\n"};
  J.append(A);
  J.append(B);

  // The on-disk bytes are exactly magic + encodeRecord per record — the
  // contract the crash harness's byte-prefix checks rely on.
  EXPECT_EQ(readAll(Path), std::string(Journal::Magic) +
                               Journal::encodeRecord(A) +
                               Journal::encodeRecord(B));

  std::vector<Journal::Record> R = J.replayAndRepair();
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0].ProcName, "f");
  EXPECT_EQ(R[0].Body, A.Body);
  EXPECT_EQ(R[1].ProcName, "g");
  EXPECT_EQ(R[1].Body, B.Body);
  std::remove(Path.c_str());
}

TEST(ServeJournal, TornTailIsTruncatedAndReplayIsStable) {
  std::string Path = tempPath("serve_journal_torn.log");
  std::remove(Path.c_str());
  Journal J(Path);
  J.append({"f", "first\n"});
  J.append({"g", "second\n"});
  const std::string Intact = readAll(Path);

  // A kill mid-append leaves a record prefix; replay must cut it off.
  std::string Torn = Journal::encodeRecord({"h", "never finished\n"});
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::app);
    OS << Torn.substr(0, Torn.size() / 2);
  }
  std::vector<Journal::Record> R = J.replayAndRepair();
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[1].ProcName, "g");
  EXPECT_EQ(readAll(Path), Intact) << "torn tail not truncated off";

  // Repair is idempotent, and the repaired log appends normally again.
  EXPECT_EQ(J.replayAndRepair().size(), 2u);
  J.append({"h", "third\n"});
  EXPECT_EQ(J.replayAndRepair().size(), 3u);
  std::remove(Path.c_str());
}

TEST(ServeJournal, CorruptFrameEndsTheScanAtTheLastValidRecord) {
  std::string Path = tempPath("serve_journal_corrupt.log");
  std::remove(Path.c_str());
  Journal J(Path);
  J.append({"f", "only record\n"});
  std::string Bytes = readAll(Path);
  Bytes[Journal::Magic.size() + 8] ^= 0x20; // inside the record frame
  writeAll(Path, Bytes);
  EXPECT_TRUE(J.replayAndRepair().empty());
  EXPECT_EQ(readAll(Path), std::string(Journal::Magic));
  std::remove(Path.c_str());
}

TEST(ServeJournal, WrongMagicIsATypedLoadError) {
  std::string Path = tempPath("serve_journal_badmagic.log");
  writeAll(Path, "not a journal at all\nedit 1 1\nab...\n");
  Journal J(Path);
  EXPECT_THROW(J.replayAndRepair(), LoadError);
  // And the unusable file was left alone for the operator to inspect.
  EXPECT_NE(readAll(Path).find("not a journal"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ServeEngine, JournaledEditsSurviveACrashAndCompactionFoldsThem) {
  std::string Store = tempPath("serve_wal_store.bin");
  std::string Log = tempPath("serve_wal_journal.log");
  std::remove(Store.c_str());
  std::remove(Log.c_str());
  EngineOptions EO;
  EO.StorePath = Store;
  EO.JournalPath = Log;

  std::string EditedText;
  {
    ServeEngine E(DiamondText, EO);
    ASSERT_TRUE(E.solveInitial().Ok); // auto-saves the baseline store
    E.resetJournal();                 // cold start: fresh log
    ASSERT_TRUE(
        E.applyEdit("g", gBlockWith(E, "3: w.close() -> 1", "3: nop -> 1"))
            .Ok);
    EXPECT_TRUE(E.errorSites().empty());
    EditedText = E.programText();
    // No save, no compaction: the daemon "crashes" here. The edit was
    // acknowledged, so it must be journaled already.
  }

  ServeEngine R(ServeEngine::FromStore{Store}, EO);
  ASSERT_TRUE(R.solveInitial().Ok);
  EXPECT_EQ(R.errorSites(), std::set<SiteId>{1}) // store = pre-edit
      << "store snapshot should not contain the unjournaled-only edit";
  size_t Replayed = 0;
  EditResult Rep = R.replayJournal(&Replayed);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Replayed, 1u);
  EXPECT_TRUE(R.errorSites().empty());
  EXPECT_EQ(R.programText(), EditedText);

  // Compaction folds the log into the store and resets it; a second
  // warm start then replays nothing and still sees the edited program.
  R.compact();
  EXPECT_EQ(readAll(Log), std::string(Journal::Magic));
  ServeEngine R2(ServeEngine::FromStore{Store}, EO);
  ASSERT_TRUE(R2.solveInitial().Ok);
  size_t Replayed2 = 99;
  ASSERT_TRUE(R2.replayJournal(&Replayed2).Ok);
  EXPECT_EQ(Replayed2, 0u);
  EXPECT_TRUE(R2.errorSites().empty());
  EXPECT_EQ(R2.programText(), EditedText);
  std::remove(Store.c_str());
  std::remove(Log.c_str());
}

TEST(ServeEngine, DeadlineExceededYieldsSoundDegradedAnswer) {
  std::string Store = tempPath("serve_deadline_store.bin");
  std::remove(Store.c_str());
  {
    ServeEngine E(DiamondText, EngineOptions());
    ASSERT_TRUE(E.solveInitial().Ok);
    E.saveStore(Store);
  }
  // MaxSteps=1 makes any re-analysis deterministically exhaust its
  // budget; the warm start itself reuses every summary, so it fits.
  EngineOptions Tight;
  Tight.MaxStepsPerRequest = 1;
  ServeEngine E(ServeEngine::FromStore{Store}, Tight);
  ASSERT_TRUE(E.solveInitial().Ok);

  std::string Body = gBlockWith(E, "3: w.close() -> 1", "3: nop -> 1");
  EditResult R = E.applyEdit("g", Body, /*DeadlineMs=*/1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_TRUE(R.Degraded) << "deadline-bounded failure must be degraded";
  EXPECT_NE(R.Error.find("sound"), std::string::npos);

  // The same exhaustion without a deadline is a plain budget failure.
  EditResult R2 = E.applyEdit("g", Body);
  EXPECT_FALSE(R2.Ok);
  EXPECT_TRUE(R2.BudgetExhausted);
  EXPECT_FALSE(R2.Degraded);

  // Soundness of the degraded answer: pre-edit verdicts still served.
  EXPECT_EQ(E.errorSites(), std::set<SiteId>{1});
  EXPECT_EQ(E.verdict(1), TsVerdict::ErrorReported);

  // EngineOptions::RequestDeadlineMs is the per-request default.
  EngineOptions Deadlined = Tight;
  Deadlined.RequestDeadlineMs = 750;
  ServeEngine D(ServeEngine::FromStore{Store}, Deadlined);
  ASSERT_TRUE(D.solveInitial().Ok);
  EditResult R3 = D.applyEdit("g", Body);
  EXPECT_FALSE(R3.Ok);
  EXPECT_TRUE(R3.Degraded);
  std::remove(Store.c_str());
}

TEST(ServeServer, BudgetExhaustionLatchesTheAdmissionGate) {
  std::string Store = tempPath("serve_shed_store.bin");
  std::remove(Store.c_str());
  {
    ServeEngine E(DiamondText, EngineOptions());
    ASSERT_TRUE(E.solveInitial().Ok);
    E.saveStore(Store);
  }
  EngineOptions Tight;
  Tight.MaxStepsPerRequest = 1;
  ServeEngine E(ServeEngine::FromStore{Store}, Tight);
  ASSERT_TRUE(E.solveInitial().Ok);

  std::string Body = gBlockWith(E, "3: w.close() -> 1", "3: nop -> 1");
  std::string Escaped;
  for (char C : Body)
    if (C == '\n')
      Escaped += "\\n";
    else
      Escaped += C;
  std::string Edit =
      "{\"op\":\"edit\",\"proc\":\"g\",\"body\":\"" + Escaped + "\"}\n";

  ServeLimits SL;
  SL.ShedCooldownMs = 60'000; // latch outlives this test once armed
  std::istringstream In(Edit + Edit + "{\"op\":\"query\",\"site\":1}\n" +
                        "{\"op\":\"shutdown\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(serveLines(E, In, Out, SL), 0);

  std::istringstream Lines(Out.str());
  std::string L;
  ASSERT_TRUE(std::getline(Lines, L)); // first edit: ran, exhausted
  EXPECT_NE(L.find("\"budget_exhausted\":true"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L)); // second edit: shed, not run
  EXPECT_NE(L.find("\"code\":\"retry\""), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L)); // queries are never shed
  EXPECT_NE(L.find("\"verdict\":\"error\""), std::string::npos);
  std::remove(Store.c_str());
}

TEST(ServeServer, QueuePressureShedsEditsButNeverQueries) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);
  ServeLimits SL;
  SL.MaxPendingBytes = 8; // the padding below dwarfs this
  std::string Pad(4096, ' ');
  std::istringstream In("{\"op\":\"fuzz_edit\",\"seed\":3,\"k\":0}\n" +
                        Pad + "\n" + Pad + "\n" +
                        "{\"op\":\"query\",\"site\":1}\n"
                        "{\"op\":\"shutdown\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(serveLines(E, In, Out, SL), 0);

  std::istringstream Lines(Out.str());
  std::string L;
  ASSERT_TRUE(std::getline(Lines, L)); // edit under pressure: shed
  EXPECT_NE(L.find("\"code\":\"retry\""), std::string::npos);
  // Whitespace-only pad lines get no response; the query (now the
  // near-empty tail of the queue) is served normally.
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"verdict\":\"error\""), std::string::npos);
}

TEST(ServeServer, DrainFinishesTheInFlightRequestThenExits) {
  ServeEngine E(DiamondText, EngineOptions());
  ASSERT_TRUE(E.solveInitial().Ok);
  std::atomic<bool> Drain{true}; // the signal has already arrived
  ServeLimits SL;
  SL.Drain = &Drain;
  std::istringstream In("{\"op\":\"stats\"}\n{\"op\":\"query_all\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(serveLines(E, In, Out, SL), 0);

  // The in-flight request was answered, the drain line closed the
  // session, and the queued query_all was never served.
  std::istringstream Lines(Out.str());
  std::string L;
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"procs\":4"), std::string::npos);
  ASSERT_TRUE(std::getline(Lines, L));
  EXPECT_NE(L.find("\"drain\":true"), std::string::npos);
  EXPECT_FALSE(std::getline(Lines, L)) << "served past drain: " << L;

  // A line the closed fd cut short (no newline, eofbit) was never fully
  // sent: it is discarded, not half-parsed.
  std::istringstream In2("{\"op\":\"stats\"");
  std::ostringstream Out2;
  EXPECT_EQ(serveLines(E, In2, Out2, SL), 0);
  // Exactly one line came out — the drain stats, not a response to the
  // truncated request.
  std::istringstream Lines2(Out2.str());
  ASSERT_TRUE(std::getline(Lines2, L));
  EXPECT_NE(L.find("\"drain\":true"), std::string::npos);
  EXPECT_FALSE(std::getline(Lines2, L)) << "answered a torn line: " << L;
}

} // namespace
