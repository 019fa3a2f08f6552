//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the sharded analysis layer: the planner's DAG-respecting
/// contiguous partition, the spool segment codec and its verify-then-
/// adopt loading, the worker's solve preparation (segment adoption /
/// forced degradation), shard-count invariance of the whole in-process
/// pipeline against the pure-BU reference, and the soundness of degraded
/// partial verdicts.
///
//===----------------------------------------------------------------------===//

#include "difftest/Difftest.h"
#include "genprog/Fuzzer.h"
#include "ir/Dumper.h"
#include "shard/Coordinator.h"
#include "shard/Planner.h"
#include "shard/Sharded.h"
#include "shard/Spool.h"
#include "shard/Worker.h"
#include "support/AtomicFile.h"
#include "support/Frame.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "typestate/Runner.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <memory>
#include <string>

using namespace swift;
namespace fs = std::filesystem;

namespace {

/// A fuzz program normalized through one text round trip, so every
/// consumer (solver, spool parser, reference run) shares one symbol
/// interning order.
std::unique_ptr<Program> fuzzProgram(uint64_t Seed) {
  return parseProgramText(programToText(
      *generateFuzzProgram(difftest::fuzzConfigForSeed(Seed))));
}

std::string trackedClass(const Program &Prog) {
  return Prog.symbols().text(Prog.spec(0).name());
}

/// RAII scratch directory under the system temp dir.
struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const char *Tag) {
    Path = fs::temp_directory_path() /
           (std::string("swift_shard_test_") + Tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

//===----------------------------------------------------------------------===//
// Planner
//===----------------------------------------------------------------------===//

TEST(ShardPlanner, PartitionIsContiguousCompleteAndDagOrdered) {
  std::unique_ptr<Program> Prog = fuzzProgram(7);
  TsContext Ctx(*Prog, Prog->spec(0).name());
  const CallGraph &CG = Ctx.callGraph();
  size_t NumSccs = CG.numSccs();

  for (unsigned K : {1u, 2u, 3u, 4u, 1000u}) {
    shard::ShardPlan Plan = shard::planShards(*Prog, CG, K);
    ASSERT_GE(Plan.NumShards, 1u);
    ASSERT_LE(Plan.NumShards, std::max<size_t>(1, NumSccs));
    ASSERT_EQ(Plan.ShardOfScc.size(), NumSccs);
    ASSERT_EQ(Plan.ShardSccs.size(), Plan.NumShards);
    ASSERT_EQ(Plan.ShardDeps.size(), Plan.NumShards);

    // Every SCC is owned by exactly one shard, shards cover contiguous
    // ascending ranges (so callee SCCs never live in a later shard), and
    // the ownership map agrees with the per-shard lists.
    size_t Next = 0;
    for (unsigned S = 0; S != Plan.NumShards; ++S) {
      EXPECT_FALSE(Plan.ShardSccs[S].empty());
      for (size_t Scc : Plan.ShardSccs[S]) {
        EXPECT_EQ(Scc, Next);
        EXPECT_EQ(Plan.ShardOfScc[Scc], S);
        ++Next;
      }
      // Dependencies point strictly downward in the SCC order.
      for (unsigned D : Plan.ShardDeps[S])
        EXPECT_LT(D, S);
    }
    EXPECT_EQ(Next, NumSccs);

    // Ownership of a procedure goes through its SCC.
    for (ProcId P = 0; P != Prog->numProcs(); ++P)
      EXPECT_EQ(Plan.shardOfProc(CG, P), Plan.ShardOfScc[CG.scc(P)]);
  }
}

TEST(ShardPlanner, EveryCrossShardCalleeIsADependency) {
  std::unique_ptr<Program> Prog = fuzzProgram(11);
  TsContext Ctx(*Prog, Prog->spec(0).name());
  const CallGraph &CG = Ctx.callGraph();
  shard::ShardPlan Plan = shard::planShards(*Prog, CG, 4);
  for (ProcId P = 0; P != Prog->numProcs(); ++P) {
    unsigned SP = Plan.shardOfProc(CG, P);
    for (ProcId Q : CG.callees(P)) {
      unsigned SQ = Plan.shardOfProc(CG, Q);
      if (SQ == SP)
        continue;
      const std::vector<unsigned> &Deps = Plan.ShardDeps[SP];
      EXPECT_TRUE(std::find(Deps.begin(), Deps.end(), SQ) != Deps.end())
          << "shard " << SP << " calls into shard " << SQ
          << " without a dependency edge";
    }
  }
}

//===----------------------------------------------------------------------===//
// Spool codec
//===----------------------------------------------------------------------===//

shard::Segment sampleSegment() {
  shard::Segment Seg;
  Seg.ProgHash = 0xdeadbeefcafef00dULL;
  Seg.Scc = 42;
  Seg.Procs.push_back({"alpha", "line one\nline two\n"});
  // Summary payloads are length-framed raw bytes: embedded newlines,
  // NULs, and spool keywords must survive.
  Seg.Procs.push_back(
      {"beta", std::string("crc32 ffffffff\nproc x 3\n\0\x01", 27)});
  return Seg;
}

TEST(SpoolCodec, RoundTripPreservesEverything) {
  shard::Segment Seg = sampleSegment();
  shard::Segment Back = shard::decodeSegment(shard::encodeSegment(Seg));
  EXPECT_EQ(Back.ProgHash, Seg.ProgHash);
  EXPECT_EQ(Back.Scc, Seg.Scc);
  ASSERT_EQ(Back.Procs.size(), Seg.Procs.size());
  for (size_t I = 0; I != Seg.Procs.size(); ++I) {
    EXPECT_EQ(Back.Procs[I].Name, Seg.Procs[I].Name);
    EXPECT_EQ(Back.Procs[I].SummaryText, Seg.Procs[I].SummaryText);
  }
}

TEST(SpoolCodec, CorruptionIsDetected) {
  std::string Good = shard::encodeSegment(sampleSegment());

  // Any single flipped byte must fail the frame or CRC check.
  for (size_t I = 0; I < Good.size(); I += 7) {
    std::string Bad = Good;
    Bad[I] ^= 0x20;
    EXPECT_THROW((void)shard::decodeSegment(Bad), LoadError)
        << "byte " << I << " flip undetected";
  }
  // Truncation at every prefix length must fail too.
  for (size_t Len = 0; Len < Good.size(); Len += 11)
    EXPECT_THROW((void)shard::decodeSegment(Good.substr(0, Len)),
                 LoadError)
        << "truncation to " << Len << " undetected";
  // Trailing garbage after a valid frame is not a valid segment file.
  EXPECT_THROW((void)shard::decodeSegment(Good + "x"), LoadError);
  EXPECT_THROW((void)shard::decodeSegment(std::string()), LoadError);
}

TEST(SpoolCodec, NonCanonicalCrcTrailerIsRejected) {
  // Like every framed format, a segment accepts only "crc32 " + exactly
  // 8 lowercase hex digits + '\n' — not the same CRC spelled wider,
  // upper-case, or after an extra blank.
  const std::string Good = shard::encodeSegment(sampleSegment());
  const size_t At = Good.size() - 9; // the 8 hex digits + '\n'
  const std::string Hex = Good.substr(At, 8);
  std::string Upper = Hex;
  for (char &C : Upper)
    C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
  ASSERT_NE(Upper, Hex) << "CRC has no hex letter; pick another sample";
  for (const std::string &Spelling : {"00000000" + Hex, Upper, " " + Hex}) {
    try {
      (void)shard::decodeSegment(Good.substr(0, At) + Spelling + "\n");
      ADD_FAILURE() << "trailer 'crc32 " << Spelling << "' accepted";
    } catch (const LoadError &E) {
      EXPECT_EQ(E.kind(), LoadErrorKind::Corrupt) << E.what();
    }
  }
}

TEST(SpoolCodec, TryLoadVerifiesThenAdoptsAndNeverThrows) {
  ScratchDir Dir("tryload");
  shard::Segment Seg = sampleSegment();
  shard::saveSegment(Dir.str(), Seg);

  // Hit: same SCC and hash.
  std::optional<shard::Segment> Hit =
      shard::tryLoadSegment(Dir.str(), Seg.Scc, Seg.ProgHash);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Procs.size(), Seg.Procs.size());

  // Miss, never throw: absent file, wrong program hash, corrupt bytes.
  EXPECT_FALSE(shard::tryLoadSegment(Dir.str(), Seg.Scc + 1, Seg.ProgHash)
                   .has_value());
  EXPECT_FALSE(shard::tryLoadSegment(Dir.str(), Seg.Scc, Seg.ProgHash + 1)
                   .has_value());
  std::string Path = shard::segmentPath(Dir.str(), Seg.Scc);
  std::string Bytes = readWholeFile(Path);
  Bytes[Bytes.size() / 2] ^= 0x01;
  writeFileAtomic(Path, Bytes);
  EXPECT_FALSE(
      shard::tryLoadSegment(Dir.str(), Seg.Scc, Seg.ProgHash).has_value());
}

//===----------------------------------------------------------------------===//
// Shard-count invariance and degradation soundness
//===----------------------------------------------------------------------===//

TEST(ShardedRun, KInvariantAndCoincidesWithPureBu) {
  for (uint64_t Seed : {3u, 9u, 15u}) {
    std::unique_ptr<Program> Prog = fuzzProgram(Seed);
    std::string Class = trackedClass(*Prog);
    TsContext Ctx(*Prog, Prog->symbols().intern(Class));
    TsRunResult Bu = runTypestateBu(Ctx, RunLimits{20'000'000, 60.0});
    if (Bu.Timeout)
      continue; // resource fact; the other seeds still cover the check

    shard::ShardedOptions SO;
    std::optional<shard::ShardedResult> Ref;
    for (unsigned K : {1u, 2u, 4u}) {
      SO.NumShards = K;
      shard::ShardedResult R = shard::runShardedInProcess(*Prog, Class, SO);
      ASSERT_TRUE(R.Complete) << "seed " << Seed << " K " << K;
      EXPECT_FALSE(R.Degraded);
      EXPECT_EQ(R.ErrorSites, Bu.ErrorSites) << "seed " << Seed << " K " << K;
      EXPECT_EQ(R.MainExit, Bu.MainExit) << "seed " << Seed << " K " << K;
      if (!Ref) {
        Ref = std::move(R);
        continue;
      }
      EXPECT_EQ(R.ErrorPoints, Ref->ErrorPoints)
          << "seed " << Seed << " K " << K;
      EXPECT_EQ(R.Verdicts, Ref->Verdicts) << "seed " << Seed << " K " << K;
    }
  }
}

TEST(ShardedRun, DegradedShardsYieldSoundPartialVerdicts) {
  std::unique_ptr<Program> Prog = fuzzProgram(15);
  std::string Class = trackedClass(*Prog);
  TsContext Ctx(*Prog, Prog->symbols().intern(Class));
  TsRunResult Bu = runTypestateBu(Ctx, RunLimits{20'000'000, 60.0});
  ASSERT_FALSE(Bu.Timeout);

  shard::ShardedOptions SO;
  SO.NumShards = 2;
  SO.DegradedShards = {0};
  shard::ShardedResult D = shard::runShardedInProcess(*Prog, Class, SO);
  ASSERT_TRUE(D.Complete);

  // Degraded summaries only ever suppress relations: reported errors are
  // a subset of the full run's, and no tracked site is claimed Proved
  // once a degraded summary entered the assembly.
  for (SiteId S : D.ErrorSites)
    EXPECT_TRUE(Bu.ErrorSites.count(S)) << "@" << S;
  ASSERT_EQ(D.Verdicts.size(), Prog->numSites());
  for (uint32_t S = 0; S != D.Verdicts.size(); ++S) {
    if (!Ctx.isTrackedSite(S)) {
      EXPECT_EQ(D.Verdicts[S], TsVerdict::Proved);
      continue;
    }
    if (D.Degraded) {
      EXPECT_NE(D.Verdicts[S], TsVerdict::Proved) << "@" << S;
    }
    if (D.Verdicts[S] == TsVerdict::ErrorReported) {
      EXPECT_TRUE(Bu.ErrorSites.count(S)) << "@" << S;
    }
  }
}

//===----------------------------------------------------------------------===//
// Worker library (no processes: runWorker called in-process)
//===----------------------------------------------------------------------===//

TEST(ShardWorker, WorkersPopulateSpoolAndAssemblyMatchesBu) {
  ScratchDir Dir("worker");
  std::unique_ptr<Program> Prog = fuzzProgram(15);
  std::string Class = trackedClass(*Prog);
  std::string ProgPath = Dir.str() + "/prog.swiftir";
  writeFileAtomic(ProgPath, programToText(*Prog));

  shard::WorkerOptions WO;
  WO.ProgramPath = ProgPath;
  WO.TrackedClass = Class;
  WO.NumShards = 2;
  WO.SpoolDir = Dir.str();
  for (unsigned S = 0; S != 2; ++S) {
    WO.Shard = S;
    std::string Err;
    EXPECT_EQ(shard::runWorker(WO, &Err), shard::WorkerExitOk) << Err;
  }

  // Every SCC's segment is on disk and verifies against the plan's hash.
  TsContext Ctx(*Prog, Prog->symbols().intern(Class));
  const CallGraph &CG = Ctx.callGraph();
  shard::ShardPlan Plan = shard::planShards(*Prog, CG, 2);
  uint64_t Hash = shard::programSpoolHash(*Prog, Class);
  for (size_t Scc = 0; Scc != CG.numSccs(); ++Scc)
    EXPECT_TRUE(shard::tryLoadSegment(Dir.str(), Scc, Hash).has_value())
        << "scc " << Scc;

  // Assembling from the worker-written spool is the pure-BU run.
  shard::ShardedResult A = shard::assembleFromSpool(
      *Prog, Ctx, Plan, Dir.str(), Hash, /*DegradedShards=*/{},
      /*MaxSteps=*/UINT64_MAX);
  ASSERT_TRUE(A.Complete);
  TsRunResult Bu = runTypestateBu(Ctx);
  EXPECT_EQ(A.ErrorSites, Bu.ErrorSites);
  EXPECT_EQ(A.MainExit, Bu.MainExit);
}

TEST(ShardWorker, SegmentsWithOutOfRangeTypestatesAreNotAdopted) {
  // A CRC-valid segment whose summaries carry typestates the tracked spec
  // does not have must be a cache miss, like any other defect: the
  // relation algebra indexes iota without a bounds check.
  ScratchDir Dir("tstate");
  std::unique_ptr<Program> Prog = fuzzProgram(15);
  std::string Class = trackedClass(*Prog);
  std::string ProgPath = Dir.str() + "/prog.swiftir";
  writeFileAtomic(ProgPath, programToText(*Prog));
  shard::WorkerOptions WO;
  WO.ProgramPath = ProgPath;
  WO.TrackedClass = Class;
  WO.NumShards = 1;
  WO.SpoolDir = Dir.str();
  ASSERT_EQ(shard::runWorker(WO), shard::WorkerExitOk);

  TsContext Ctx(*Prog, Prog->symbols().intern(Class));
  ASSERT_EQ(Ctx.spec().numStates(), 3u);
  shard::ShardPlan Plan = shard::planShards(*Prog, Ctx.callGraph(), 1);
  uint64_t Hash = shard::programSpoolHash(*Prog, Class);
  size_t MainScc = Ctx.callGraph().scc(Prog->mainProc());
  const std::optional<shard::Segment> Good =
      shard::tryLoadSegment(Dir.str(), MainScc, Hash);
  ASSERT_TRUE(Good.has_value());
  auto Adopted = [&](const shard::Segment &Seg) {
    shard::saveSegment(Dir.str(), Seg);
    Budget Bud(UINT64_MAX, 1e18);
    Stats Stat;
    RelationalSolver<TsAnalysis> Solver(
        Ctx, Ctx.program(), Ctx.callGraph(), NoPruning,
        [](ProcId) -> const std::unordered_map<TsAbstractState, uint64_t> * {
          return nullptr;
        },
        Bud, Stat);
    return shard::prepareSolve(*Prog, Ctx, Plan, Dir.str(), Hash, {},
                               {MainScc}, Solver)
               .InstalledSccs == 1;
  };
  // Replaces the count and the entries of every "iota 3 d d d" in main's
  // summary with \p Entries (same byte length).
  auto WithIota = [&](const std::string &Entries) {
    shard::Segment Seg = *Good;
    size_t Hits = 0;
    for (shard::SegmentProc &P : Seg.Procs)
      for (size_t At = P.SummaryText.find(" iota 3 ");
           At != std::string::npos;
           At = P.SummaryText.find(" iota 3 ", At + 1), ++Hits)
        P.SummaryText.replace(At + 6, 7, Entries);
    EXPECT_GT(Hits, 0u);
    return Seg;
  };
  EXPECT_TRUE(Adopted(*Good));
  EXPECT_FALSE(Adopted(WithIota("1 2    "))) << "one-entry iota adopted";
  EXPECT_FALSE(Adopted(WithIota("3 2 2 7"))) << "iota entry 7 adopted";
}

TEST(ShardWorker, UsageAndFaultExitCodes) {
  ScratchDir Dir("workererr");
  std::unique_ptr<Program> Prog = fuzzProgram(3);
  std::string ProgPath = Dir.str() + "/prog.swiftir";
  writeFileAtomic(ProgPath, programToText(*Prog));

  shard::WorkerOptions WO;
  WO.ProgramPath = ProgPath;
  WO.SpoolDir = Dir.str();

  std::string Err;
  WO.Shard = 1 << 20; // far past any plan
  EXPECT_EQ(shard::runWorker(WO, &Err), shard::WorkerExitUsage);

  WO.Shard = 0;
  WO.TrackedClass = "NoSuchClass";
  EXPECT_EQ(shard::runWorker(WO, &Err), shard::WorkerExitUsage);

  WO.TrackedClass.clear();
  WO.ProgramPath = Dir.str() + "/missing.swiftir";
  EXPECT_EQ(shard::runWorker(WO, &Err), shard::WorkerExitFault);
  EXPECT_FALSE(Err.empty());

  // A starved budget is the deterministic exit, not a fault.
  WO.ProgramPath = ProgPath;
  WO.MaxSteps = 1;
  EXPECT_EQ(shard::runWorker(WO, &Err), shard::WorkerExitBudget);
}

} // namespace
