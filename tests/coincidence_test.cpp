//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests of the paper's central correctness claim (Theorem 3.1
/// and the equivalence of Algorithm 1 to a conventional top-down
/// analysis): on randomly generated programs, SWIFT computes exactly the
/// same result as TD for every (k, theta), the analysis results SWIFT does
/// compute are a subset of TD's facts, and the unpruned bottom-up analysis
/// instantiated on the initial state agrees as well.
///
//===----------------------------------------------------------------------===//

#include "framework/Tabulation.h"
#include "genprog/Fuzzer.h"
#include "genprog/Generator.h"
#include "typestate/Runner.h"
#include "typestate/TsAnalysis.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

using namespace swift;

namespace {

using Fact = std::tuple<ProcId, NodeId, TsAbstractState, TsAbstractState>;

std::set<Fact> collectFacts(const TsContext &Ctx, uint64_t K,
                            uint64_t Theta) {
  Budget Bud(50'000'000, 60.0);
  Stats Stat;
  TabulationSolver<TsAnalysis>::Config Cfg;
  Cfg.K = K;
  Cfg.Theta = Theta;
  TabulationSolver<TsAnalysis> Solver(Ctx, Ctx.program(), Ctx.callGraph(),
                                      Cfg, Bud, Stat);
  EXPECT_TRUE(Solver.run()) << "budget exhausted";
  std::set<Fact> Facts;
  Solver.forEachFact([&](ProcId P, NodeId N, const TsAbstractState &E,
                         const TsAbstractState &C) {
    Facts.insert({P, N, E, C});
  });
  return Facts;
}

class CoincidenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoincidenceTest, SwiftEqualsTopDownOnFuzzedPrograms) {
  FuzzConfig FC;
  FC.Seed = GetParam();
  FC.NumProcs = 3 + GetParam() % 3;
  FC.StmtsPerProc = 5 + GetParam() % 5;
  FC.NumVars = 3;
  std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_FALSE(Td.Timeout);
  std::set<Fact> TdFacts = collectFacts(Ctx, NoBuTrigger, 1);

  for (auto [K, Theta] : {std::pair<uint64_t, uint64_t>{0, 1},
                          {1, 1},
                          {2, 1},
                          {1, 2},
                          {3, 2},
                          {2, 8}}) {
    TsRunResult Sw = runTypestateSwift(Ctx, K, Theta);
    ASSERT_FALSE(Sw.Timeout);
    EXPECT_EQ(Sw.MainExit, Td.MainExit)
        << "seed=" << FC.Seed << " k=" << K << " theta=" << Theta;
    EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites)
        << "seed=" << FC.Seed << " k=" << K << " theta=" << Theta;

    // Every fact SWIFT computes is a fact TD computes (SWIFT only *skips*
    // re-analyses; it never invents states).
    std::set<Fact> SwFacts = collectFacts(Ctx, K, Theta);
    for (const Fact &F : SwFacts)
      EXPECT_TRUE(TdFacts.count(F))
          << "seed=" << FC.Seed << " k=" << K << " theta=" << Theta
          << " spurious fact in proc "
          << Prog->symbols().text(
                 Prog->proc(std::get<0>(F)).name())
          << " node " << std::get<1>(F) << ": entry "
          << std::get<2>(F).str(*Prog) << " cur "
          << std::get<3>(F).str(*Prog);
  }
}

TEST_P(CoincidenceTest, BottomUpAgreesOnFuzzedPrograms) {
  FuzzConfig FC;
  FC.Seed = GetParam() * 7919 + 13;
  FC.NumProcs = 2 + GetParam() % 3;
  FC.StmtsPerProc = 5 + GetParam() % 6;
  std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  TsRunResult Td = runTypestateTd(Ctx);
  // A step cap, so that which seeds blow up depends on the code, not on
  // how fast the build runs: every seed that completes needs under 45k
  // steps, and the three that do not (params 5 and 8 hit the relation
  // cap, param 10 needs 112k steps) stop in at most about a minute even
  // under sanitizers. The wall limit is only a backstop above that.
  RunLimits BuLimits;
  BuLimits.MaxSteps = 60'000;
  BuLimits.MaxSeconds = 120.0;
  TsRunResult Bu = runTypestateBu(Ctx, BuLimits);
  ASSERT_FALSE(Td.Timeout);
  if (Bu.Timeout)
    GTEST_SKIP() << "bottom-up blow-up on seed " << FC.Seed;
  EXPECT_EQ(Bu.MainExit, Td.MainExit) << "seed=" << FC.Seed;
  EXPECT_EQ(Bu.ErrorSites, Td.ErrorSites) << "seed=" << FC.Seed;
}

TEST_P(CoincidenceTest, SwiftEqualsTopDownOnWorkloads) {
  GenConfig GC;
  GC.Seed = GetParam();
  GC.Layers = 2;
  GC.ProcsPerLayer = 3;
  GC.NumDrivers = 3;
  GC.ObjectsPerDriver = 3;
  GC.MixedCallPerMille = 400;
  GC.BugPerMille = 300;
  std::unique_ptr<Program> Prog = generateWorkload(GC);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_FALSE(Td.Timeout);
  for (auto [K, Theta] :
       {std::pair<uint64_t, uint64_t>{1, 1}, {3, 1}, {5, 2}}) {
    TsRunResult Sw = runTypestateSwift(Ctx, K, Theta);
    ASSERT_FALSE(Sw.Timeout);
    EXPECT_EQ(Sw.MainExit, Td.MainExit)
        << "seed=" << GC.Seed << " k=" << K << " theta=" << Theta;
    EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites)
        << "seed=" << GC.Seed << " k=" << K << " theta=" << Theta;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoincidenceTest,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
