//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the parallel bottom-up solver and of the budget bottom-up
/// solves share:
///
///  - The SCC-wavefront scheduler is deterministic: summaries are
///    bit-identical for every thread count, on the paper's running example
///    and on generated workloads, with and without pruning.
///  - A triggered bottom-up solve charges the hybrid's one shared budget:
///    the recorded step count covers its node visits (regression for a
///    bottom-up run with a fresh budget of its own, which both exceeds the
///    requested limit and under-reports), and a hard step cap bounds the
///    whole hybrid run.
///  - The pure-BU wavefront's workers share one budget too: the run stops
///    at the cap, and the wavefront drains when the budget runs out in the
///    middle of it.
///
//===----------------------------------------------------------------------===//

#include "framework/RelationalSolver.h"
#include "framework/Tabulation.h"
#include "genprog/Generator.h"
#include "lang/Lower.h"
#include "typestate/Runner.h"
#include "typestate/TsAnalysis.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace swift;

namespace {

using Solver = RelationalSolver<TsAnalysis>;

const char *PaperExample = R"(
  typestate File {
    start closed; error err;
    closed -open-> opened;
    opened -close-> closed;
  }
  proc main() {
    v1 = new File; foo(v1);
    v2 = new File; foo(v2);
    v3 = new File; foo(v3);
  }
  proc foo(f) { f.open(); f.close(); }
)";

bool sameSummary(const Solver::Summary &A, const Solver::Summary &B) {
  return A.Rels == B.Rels && A.Sigma == B.Sigma &&
         A.LambdaExit == B.LambdaExit && A.ObsRels == B.ObsRels &&
         A.SigmaAll == B.SigmaAll;
}

/// A full-program bottom-up solve bundled with the budget and stats the
/// solver references.
struct Solve {
  Budget Bud{200'000'000, 120.0};
  Stats Stat;
  std::unique_ptr<Solver> S;
};

/// Solves the whole program bottom-up with \p Threads workers and, when a
/// baseline is given, checks every summary is bit-identical to it.
void solveAndCompare(const TsContext &Ctx, uint64_t Theta,
                     unsigned Threads, const Solve *Baseline,
                     std::unique_ptr<Solve> &Out) {
  Out = std::make_unique<Solve>();
  Out->S = std::make_unique<Solver>(
      Ctx, Ctx.program(), Ctx.callGraph(), Theta,
      [](ProcId) -> const std::unordered_map<TsAbstractState, uint64_t> * {
        return nullptr;
      },
      Out->Bud, Out->Stat, DefaultMaxRelsPerPoint, Threads);
  std::vector<ProcId> All =
      Ctx.callGraph().reachableFrom(Ctx.program().mainProc());
  ASSERT_TRUE(Out->S->run(All)) << "budget exhausted";
  if (!Baseline)
    return;
  for (ProcId P = 0; P != Ctx.program().numProcs(); ++P) {
    ASSERT_EQ(Out->S->hasSummary(P), Baseline->S->hasSummary(P))
        << "threads=" << Threads << " proc=" << P;
    if (Baseline->S->hasSummary(P)) {
      EXPECT_TRUE(sameSummary(Out->S->summary(P), Baseline->S->summary(P)))
          << "summary differs: threads=" << Threads << " proc=" << P
          << " theta=" << Theta;
    }
  }
}

TEST(ParallelBuTest, PaperExampleSummariesBitIdentical) {
  std::unique_ptr<Program> Prog = parseProgram(PaperExample);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  for (uint64_t Theta : {NoPruning, uint64_t(2)}) {
    std::unique_ptr<Solve> Base, Par;
    solveAndCompare(Ctx, Theta, 1, nullptr, Base);
    for (unsigned T : {2u, 4u})
      solveAndCompare(Ctx, Theta, T, Base.get(), Par);
  }
}

TEST(ParallelBuTest, WorkloadSummariesBitIdentical) {
  // Three generator configs with different call-DAG shapes (wide, deep,
  // recursive-heavy); pruned solve so the mid-size ones stay cheap.
  GenConfig Wide;
  Wide.Seed = 11;
  Wide.Layers = 2;
  Wide.ProcsPerLayer = 8;
  Wide.NumDrivers = 4;
  Wide.ObjectsPerDriver = 3;
  GenConfig Deep;
  Deep.Seed = 22;
  Deep.Layers = 6;
  Deep.ProcsPerLayer = 3;
  Deep.NumDrivers = 3;
  Deep.ObjectsPerDriver = 2;
  GenConfig Mixed;
  Mixed.Seed = 33;
  Mixed.Layers = 4;
  Mixed.ProcsPerLayer = 5;
  Mixed.NumDrivers = 4;
  Mixed.ObjectsPerDriver = 3;
  Mixed.MixedCallPerMille = 500;
  Mixed.BugPerMille = 300;

  for (const GenConfig &GC : {Wide, Deep, Mixed}) {
    std::unique_ptr<Program> Prog = generateWorkload(GC);
    TsContext Ctx(*Prog, Prog->symbols().intern("File"));
    std::unique_ptr<Solve> Base, Par;
    solveAndCompare(Ctx, 2, 1, nullptr, Base);
    for (unsigned T : {2u, 4u})
      solveAndCompare(Ctx, 2, T, Base.get(), Par);
  }
}

TEST(ParallelBuTest, RunnerResultsMatchAcrossThreadCounts) {
  GenConfig GC;
  GC.Seed = 7;
  GC.Layers = 3;
  GC.ProcsPerLayer = 4;
  GC.NumDrivers = 3;
  GC.ObjectsPerDriver = 2;
  std::unique_ptr<Program> Prog = generateWorkload(GC);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  RunLimits L;
  L.MaxSteps = 50'000'000;
  L.MaxSeconds = 60.0;
  TsRunResult Base = runTypestateBu(Ctx, L, 1);
  ASSERT_FALSE(Base.Timeout);
  for (unsigned T : {2u, 4u}) {
    TsRunResult R = runTypestateBu(Ctx, L, T);
    ASSERT_FALSE(R.Timeout) << "threads=" << T;
    EXPECT_EQ(R.MainExit, Base.MainExit) << "threads=" << T;
    EXPECT_EQ(R.ErrorSites, Base.ErrorSites) << "threads=" << T;
    EXPECT_EQ(R.BuRelations, Base.BuRelations) << "threads=" << T;
    // The wavefront performs exactly the same solves, so even the charged
    // step count is identical.
    EXPECT_EQ(R.Steps, Base.Steps) << "threads=" << T;
  }
}

/// A program with one bottom-up trigger: main calls the head of a long
/// chain twice with objects from two allocation sites. The first call
/// warms the whole chain top-down (every procedure EverCalled), so when
/// the second, distinct entry state arrives at p0 with k = 1, the trigger
/// fires with the full chain as its frontier.
std::unique_ptr<Program> makeChainProgram(unsigned Procs, unsigned Reps) {
  std::string Src =
      "typestate File { start closed; error err; "
      "closed -open-> opened; opened -close-> closed; }\n"
      "proc main() { v1 = new File; p0(v1); v2 = new File; p0(v2); }\n";
  for (unsigned I = 0; I != Procs; ++I) {
    Src += "proc p" + std::to_string(I) + "(f) { ";
    for (unsigned R = 0; R != Reps; ++R)
      Src += "f.open(); f.close(); ";
    if (I + 1 != Procs)
      Src += "p" + std::to_string(I + 1) + "(f); ";
    Src += "}\n";
  }
  return parseProgram(Src);
}

/// Pruning bound for the chain program: at theta = 4 the triggered solve
/// spends more steps than the top-down work its summaries save, so the
/// hybrid's total exceeds TD's only if the solve's steps are on record.
constexpr uint64_t ChainTheta = 4;

TEST(AsyncBudgetTest, WorkerStepsChargeSharedBudget) {
  std::unique_ptr<Program> Prog = makeChainProgram(30, 20);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  TsRunResult R = runTypestateSwift(Ctx, 1, ChainTheta);
  ASSERT_FALSE(R.Timeout);
  uint64_t Visits = R.Stat.get("bu.node_visits");
  ASSERT_GT(Visits, 0u) << "no bottom-up run was triggered";

  // Every bottom-up node visit charges Budget::step() on the *shared*
  // budget, so the recorded step count must cover the solve's visits.
  // A private Budget per bottom-up run would leave these visits out of
  // the recorded count entirely.
  EXPECT_GE(R.Steps, Visits);

  // Teeth check: the hybrid's top-down portion can only be *cheaper* than
  // a complete conventional top-down run (serving calls from summaries
  // removes work, never adds it), so an accounting that recorded
  // top-down steps only could never push R.Steps past Td.Steps. With the
  // shared budget the solve's (larger) bottom-up spend is on the record
  // and pushes well past it.
  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_FALSE(Td.Timeout);
  EXPECT_GT(R.Steps, Td.Steps);
}

TEST(AsyncBudgetTest, WorkerCannotOutspendSharedCap) {
  std::unique_ptr<Program> Prog = makeChainProgram(30, 20);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_FALSE(Td.Timeout);
  TsRunResult Full = runTypestateSwift(Ctx, 1, ChainTheta);
  ASSERT_FALSE(Full.Timeout);
  uint64_t Visits = Full.Stat.get("bu.node_visits");
  ASSERT_GT(Visits, 0u);

  // A cap the complete top-down pass fits under but the triggered
  // bottom-up run pushes past (its visits alone exceed Cap - Td.Steps).
  // With the one shared budget the run must drain the budget to the cap
  // and stop there. A bottom-up run handed a *fresh* budget with the same
  // caps would keep the recorded count at the top-down cost — below the
  // cap — while the process actually spent far beyond it.
  uint64_t Cap = Td.Steps + Visits / 2;
  ASSERT_GT(Full.Steps, Cap) << "chain program no longer BU-heavy enough";
  RunLimits L;
  L.MaxSteps = Cap;
  TsRunResult R = runTypestateSwift(Ctx, 1, ChainTheta, L);
  EXPECT_GE(R.Steps, Cap); // the combined spend hit the shared cap
  EXPECT_LE(R.Steps, Cap + 1);
}

TEST(AsyncBudgetTest, ExhaustionRespectsSharedCap) {
  GenConfig GC;
  GC.Seed = 9;
  GC.Layers = 4;
  GC.ProcsPerLayer = 5;
  GC.NumDrivers = 4;
  GC.ObjectsPerDriver = 3;
  std::unique_ptr<Program> Prog = generateWorkload(GC);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  RunLimits L;
  L.MaxSteps = 2'000;
  // The budget runs out in the middle of a 4-worker pure-BU wavefront; it
  // must still drain (no worker blocks on an SCC that will never finish)
  // and the run come back partial.
  TsRunResult R = runTypestateBu(Ctx, L, 4);
  EXPECT_TRUE(R.Timeout);
  EXPECT_GT(R.Stat.get("bu.steps"), 0u) << "no bottom-up solve ran";
  // The atomic budget may overshoot by at most one step per racing
  // thread; 64 is a generous bound for any worker count.
  EXPECT_LE(R.Steps, L.MaxSteps + 64);
}

} // namespace
