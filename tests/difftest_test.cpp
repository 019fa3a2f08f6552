//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the differential-testing subsystem (src/difftest): the oracle
/// is clean on real fuzz programs, the injected transfer-function fault is
/// detected and delta-debugged to a tiny reproducer, reproducers replay,
/// and timed-out analysis runs report the timeout and nothing else.
///
/// Every oracle here runs under a step-only budget (huge wall limit) so
/// the timeout pattern — and hence the whole test — is deterministic on
/// slow and fast machines alike.
///
//===----------------------------------------------------------------------===//

#include "difftest/Difftest.h"
#include "ir/Dumper.h"
#include "typestate/Runner.h"
#include "typestate/Transfer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

using namespace swift;
using namespace swift::difftest;

namespace {

/// Scoped enablement of the test-only transfer-function fault; never leaks
/// into other tests, even on assertion failure.
struct InjectBugScope {
  InjectBugScope() { test::InjectTsCallWeakUpdateBug.store(true); }
  ~InjectBugScope() { test::InjectTsCallWeakUpdateBug.store(false); }
};

/// Step-only budget: timeouts depend on the step count, never the clock.
OracleOptions deterministicOptions(uint64_t InterpSeed) {
  OracleOptions OO;
  OO.Limits.MaxSteps = 400'000;
  OO.Limits.MaxSeconds = 3600.0;
  OO.Schedules = 4;
  OO.InterpSeed = InterpSeed;
  return OO;
}

TEST(DifftestOracleTest, CleanOnFuzzSeeds) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::unique_ptr<Program> Prog =
        generateFuzzProgram(fuzzConfigForSeed(Seed));
    OracleResult R = runOracle(*Prog, deterministicOptions(Seed * 1013 + 1));
    EXPECT_GT(R.RunsDone, 0u);
    for (const Violation &V : R.Violations)
      ADD_FAILURE() << "seed " << Seed << ": [" << checkKindName(V.Kind)
                    << "] " << V.Config << ": " << V.Detail;
  }
}

TEST(DifftestOracleTest, RequiresATypestateSpec) {
  std::unique_ptr<Program> Prog = parseProgramText(
      "proc main() entry 0 exit 1 nodes 2 {\n"
      "  0: nop -> 1\n"
      "  1: nop ->\n"
      "}\n"
      "main main\n");
  EXPECT_THROW((void)runOracle(*Prog, OracleOptions{}), std::runtime_error);
}

TEST(DifftestOracleTest, InjectedBugIsDetected) {
  InjectBugScope Bug;
  // Seed 15 is a known-divergent program under the injected fault: the
  // bottom-up relational path (tsPrimRels) is independent of the broken
  // top-down transfer, so bu-agreement fires.
  std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzConfigForSeed(15));
  OracleOptions OO = deterministicOptions(15 * 1013 + 1);
  OO.Limits.MaxSteps = 3'000'000;
  OracleResult R = runOracle(*Prog, OO);
  ASSERT_FALSE(R.clean());
  EXPECT_EQ(R.Violations.front().Kind, CheckKind::BuAgreement);
}

TEST(DifftestReducerTest, ShrinksInjectedBugToTinyReproducer) {
  InjectBugScope Bug;
  std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzConfigForSeed(15));

  OracleOptions OO = deterministicOptions(15 * 1013 + 1);
  OO.Limits.MaxSteps = 3'000'000;
  ReduceResult RR = reduceViolation(*Prog, CheckKind::BuAgreement,
                                    typestateOracle(OO), OO.InterpSeed);

  // The acceptance bar from the issue: <= 3 procedures, <= 15 statements.
  EXPECT_LE(RR.NumProcs, 3u);
  EXPECT_LE(RR.NumStmts, 15u);
  EXPECT_GT(RR.OracleRuns, 1u);
  EXPECT_LT(RR.NumProcs, Prog->numProcs());

  // The reduced text is a well-formed program that still exhibits a
  // violation of the same kind...
  std::unique_ptr<Program> Re = parseProgramText(RR.Text);
  OracleResult Replayed = runOracle(*Re, OO);
  bool SameKind = false;
  for (const Violation &V : Replayed.Violations)
    SameKind |= V.Kind == CheckKind::BuAgreement;
  EXPECT_TRUE(SameKind);

  // ...and is clean once the fault is gone, i.e. the reducer minimized the
  // bug, not some unrelated oracle artifact.
  test::InjectTsCallWeakUpdateBug.store(false);
  EXPECT_TRUE(runOracle(*Re, OO).clean());
}

TEST(DifftestReducerTest, NonReproducingInputIsReturnedUnreduced) {
  // Without the fault the oracle is clean on seed 15, so the reducer's
  // initial interestingness test fails and the input comes back whole.
  std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzConfigForSeed(15));
  OracleOptions OO = deterministicOptions(15 * 1013 + 1);
  ReduceResult RR = reduceViolation(*Prog, CheckKind::BuAgreement,
                                    typestateOracle(OO), OO.InterpSeed);
  EXPECT_EQ(RR.NumProcs, Prog->numProcs());
  EXPECT_EQ(RR.OracleRuns, 1u);
  EXPECT_EQ(RR.Text, programToText(*Prog));
}

TEST(DifftestCampaignTest, WriteAndReplayReproducer) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "swift_difftest_test_repros";
  std::filesystem::remove_all(Dir);

  std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzConfigForSeed(3));
  Violation V{CheckKind::TdCoincidence, "swift/k1/th1", "unit-test detail"};
  std::string Path =
      writeReproducer(Dir.string(), 3, V, programToText(*Prog));
  ASSERT_FALSE(Path.empty());
  EXPECT_TRUE(std::filesystem::exists(Path));

  // The header comments are skipped by the parser; the replay runs the
  // oracle on exactly the embedded program.
  OracleResult R = replayFile(Path, typestateOracle(deterministicOptions(1)));
  EXPECT_TRUE(R.clean());
  EXPECT_GT(R.RunsDone, 0u);

  EXPECT_THROW((void)replayFile((Dir / "missing.swiftir").string(),
                                typestateOracle(deterministicOptions(1))),
               std::runtime_error);
  std::filesystem::remove_all(Dir);
}

TEST(DifftestCampaignTest, CleanCampaignReportsNoBadSeeds) {
  CampaignOptions CO;
  CO.FirstSeed = 1;
  CO.NumSeeds = 2;
  CO.OutDir.clear(); // no filesystem traffic
  std::ostringstream Log;
  // InterpSeed is re-derived per seed.
  CampaignResult R =
      runCampaign(CO, typestateOracle(deterministicOptions(1)), Log);
  EXPECT_EQ(R.SeedsRun, 2u);
  EXPECT_TRUE(R.clean());
  EXPECT_FALSE(R.StoppedOnBudget);
  EXPECT_EQ(Log.str(), "");
}

//===----------------------------------------------------------------------===//
// Runner timeout contract (the bugfix part of this subsystem): a run that
// exhausts its budget reports Timeout and *nothing else* — no partially
// harvested summary/relation counts, error sites, or main-exit states that
// a consumer could mistake for a completed run's results.
//===----------------------------------------------------------------------===//

void expectTimedOutAndZeroed(const TsRunResult &R) {
  ASSERT_TRUE(R.Timeout);
  EXPECT_EQ(R.TdSummaries, 0u);
  EXPECT_EQ(R.BuRelations, 0u);
  EXPECT_TRUE(R.ErrorSites.empty());
  EXPECT_TRUE(R.ErrorPoints.empty());
  EXPECT_TRUE(R.MainExit.empty());
  for (uint64_t N : R.TdSummariesPerProc)
    EXPECT_EQ(N, 0u);
}

TEST(DifftestRunnerTest, TimedOutRunsReportNothingButTheTimeout) {
  std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzConfigForSeed(1));
  TsContext Ctx(*Prog, Prog->spec(0).name());
  RunLimits Tiny{10, 3600.0}; // 10 steps: guaranteed exhaustion

  expectTimedOutAndZeroed(runTypestateTd(Ctx, Tiny));
  expectTimedOutAndZeroed(runTypestateBu(Ctx, Tiny));
  expectTimedOutAndZeroed(runTypestateBu(Ctx, Tiny, /*Threads=*/2));
  expectTimedOutAndZeroed(runTypestateSwift(Ctx, /*K=*/1, /*Theta=*/1, Tiny));
}

} // namespace
