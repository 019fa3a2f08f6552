//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the resource governor and the governed typestate runs: the
/// pressure latch, the memory-cap trip wire, partial-result soundness
/// (budget-exhausted verdicts are a subset of the full run's), determinism
/// of governed sync runs across thread counts, the Yellow/Red degradation
/// ladder, budget phase attribution, and checkpoint/resume — including the
/// bit-identity guarantee for pure top-down runs.
///
//===----------------------------------------------------------------------===//

#include "framework/Tabulation.h"
#include "genprog/Fuzzer.h"
#include "govern/Checkpoint.h"
#include "govern/Governor.h"
#include "support/FailPoint.h"
#include "typestate/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

using namespace swift;

namespace {

//===----------------------------------------------------------------------===//
// Governor unit tests
//===----------------------------------------------------------------------===//

TEST(GovernorTest, PressureLatchesUpwardOnly) {
  GovernorLimits L;
  L.MaxSteps = 100;
  L.YellowAt = 0.5;
  L.RedAt = 0.9;
  ResourceGovernor Gov(L);
  EXPECT_EQ(Gov.level(), Pressure::Green);

  for (int I = 0; I != 55; ++I)
    Gov.budget().step();
  Gov.recompute();
  EXPECT_EQ(Gov.level(), Pressure::Yellow);

  for (int I = 0; I != 40; ++I)
    Gov.budget().step();
  Gov.recompute();
  EXPECT_EQ(Gov.level(), Pressure::Red);

  // The latch: recomputing with the same (high) fraction, or any later
  // recompute, never lowers the level.
  Gov.recompute();
  EXPECT_EQ(Gov.level(), Pressure::Red);
}

TEST(GovernorTest, FirstPollRecomputes) {
  // poll() is throttled but must do real work on the very first call so
  // YellowAt = 0 test hooks take effect before any degradation decision.
  GovernorLimits L;
  L.MaxSteps = 100;
  L.YellowAt = 0.0;
  ResourceGovernor Gov(L);
  EXPECT_EQ(Gov.poll(), Pressure::Yellow);
}

TEST(GovernorTest, MemoryCapTripsBudgetAndCancellation) {
  GovernorLimits L;
  L.MaxMemoryBytes = 1000;
  ResourceGovernor Gov(L);
  Gov.charge(400);
  Gov.release(100);
  EXPECT_EQ(Gov.memoryBytes(), 300u);
  EXPECT_EQ(Gov.peakMemoryBytes(), 400u);
  EXPECT_FALSE(Gov.budget().exhausted());

  Gov.charge(800); // 1100 > cap: hard stop
  EXPECT_TRUE(Gov.budget().exhausted());
  EXPECT_EQ(Gov.level(), Pressure::Red);
  EXPECT_EQ(Gov.peakMemoryBytes(), 1100u);
}

TEST(GovernorTest, UnlimitedDimensionsDoNotContribute) {
  ResourceGovernor Gov(GovernorLimits{}); // everything unlimited
  for (int I = 0; I != 1000; ++I)
    Gov.budget().step();
  Gov.charge(1u << 30);
  Gov.recompute();
  EXPECT_EQ(Gov.level(), Pressure::Green);
  EXPECT_EQ(Gov.fraction(), 0.0);
}

//===----------------------------------------------------------------------===//
// Governed runs: completeness, partial soundness, determinism
//===----------------------------------------------------------------------===//

FuzzConfig fuzzCfg(uint64_t Seed) {
  FuzzConfig FC;
  FC.Seed = Seed;
  FC.NumProcs = 3 + Seed % 4;
  FC.StmtsPerProc = 8 + Seed % 8;
  return FC;
}

GovernedRunOptions tdOptions(uint64_t MaxSteps = UINT64_MAX) {
  GovernedRunOptions GO;
  GO.Config.K = NoBuTrigger;
  GO.Config.Theta = 1;
  GO.Limits.MaxSteps = MaxSteps;
  return GO;
}

TEST(GovernedRunTest, UnlimitedGovernedTdMatchesPlainTd) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);
    TsGovernedResult G = runTypestateGoverned(Ctx, tdOptions());

    EXPECT_FALSE(G.Partial) << "seed " << Seed;
    EXPECT_EQ(G.Peak, Pressure::Green);
    EXPECT_EQ(G.Run.ErrorSites, Td.ErrorSites) << "seed " << Seed;
    EXPECT_EQ(G.Run.ErrorPoints, Td.ErrorPoints) << "seed " << Seed;
    EXPECT_EQ(G.Run.MainExit, Td.MainExit) << "seed " << Seed;
    EXPECT_EQ(G.Run.TdSummaries, Td.TdSummaries) << "seed " << Seed;
    EXPECT_EQ(G.Run.Steps, Td.Steps) << "seed " << Seed;
    // Complete runs resolve everything.
    for (TsVerdict V : G.Verdicts)
      EXPECT_NE(V, TsVerdict::Unresolved);
  }
}

TEST(GovernedRunTest, PartialVerdictsAreSoundSubset) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);
    ASSERT_FALSE(Td.Timeout);

    for (uint64_t MaxSteps : {uint64_t(50), uint64_t(200), uint64_t(1000)}) {
      TsGovernedResult G = runTypestateGoverned(Ctx, tdOptions(MaxSteps));
      // Tabulation only accumulates: a truncated run's error sites are a
      // subset of the full run's.
      for (SiteId S : G.Run.ErrorSites)
        EXPECT_TRUE(Td.ErrorSites.count(S))
            << "seed " << Seed << " budget " << MaxSteps
            << ": partial run reported error @" << S
            << " that the full run does not";
      for (uint32_t S = 0; S != Prog->numSites(); ++S) {
        TsVerdict V = G.Verdicts[S];
        if (V == TsVerdict::ErrorReported) {
          EXPECT_TRUE(Td.ErrorSites.count(S)) << "seed " << Seed;
        }
        // A partial run must never claim Proved for a tracked site.
        if (G.Partial && Ctx.isTrackedSite(S)) {
          EXPECT_NE(V, TsVerdict::Proved)
              << "seed " << Seed << " budget " << MaxSteps << " site " << S;
        }
      }
      if (!G.Partial) {
        EXPECT_EQ(G.Run.ErrorSites, Td.ErrorSites) << "seed " << Seed;
        EXPECT_EQ(G.Run.MainExit, Td.MainExit) << "seed " << Seed;
      }
    }
  }
}

TEST(GovernedRunTest, PartialResultsDeterministicAcrossThreadCounts) {
  // With step-only limits, governed synchronous runs are reproducible at
  // any thread count: the pressure ladder is a pure function of the
  // deterministic step count.
  for (uint64_t Seed : {2u, 5u, 9u}) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());

    for (uint64_t MaxSteps : {uint64_t(200), uint64_t(2000)}) {
      TsGovernedResult Base;
      bool First = true;
      for (unsigned Threads : {1u, 2u, 4u}) {
        GovernedRunOptions GO;
        GO.Config.K = 1;
        GO.Config.Theta = 2;
        GO.Config.Threads = Threads;
        GO.Limits.MaxSteps = MaxSteps;
        TsGovernedResult G = runTypestateGoverned(Ctx, GO);
        if (First) {
          Base = std::move(G);
          First = false;
          continue;
        }
        EXPECT_EQ(G.Partial, Base.Partial) << "seed " << Seed;
        EXPECT_EQ(G.Run.Steps, Base.Run.Steps) << "seed " << Seed;
        EXPECT_EQ(G.Run.ErrorSites, Base.Run.ErrorSites) << "seed " << Seed;
        EXPECT_EQ(G.Run.MainExit, Base.Run.MainExit) << "seed " << Seed;
        EXPECT_EQ(G.Verdicts, Base.Verdicts) << "seed " << Seed;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Degradation ladder and budget attribution
//===----------------------------------------------------------------------===//

TEST(DegradeTest, YellowShrinksThetaButKeepsResults) {
  uint64_t TotalShrunk = 0, TotalAttempts = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);

    GovernedRunOptions GO;
    GO.Config.K = 0; // trigger immediately
    GO.Config.Theta = 4;
    GO.Limits.MaxSteps = 1u << 30; // limited dimension so fractions exist
    GO.Limits.YellowAt = 0.0;      // degraded from the first poll
    TsGovernedResult G = runTypestateGoverned(Ctx, GO);

    ASSERT_FALSE(G.Partial);
    EXPECT_TRUE(pressureAtLeast(G.Peak, Pressure::Yellow));
    // Theta halving is sound: results still coincide with TD.
    EXPECT_EQ(G.Run.ErrorSites, Td.ErrorSites) << "seed " << Seed;
    EXPECT_EQ(G.Run.MainExit, Td.MainExit) << "seed " << Seed;
    TotalShrunk += G.Run.Stat.get("gov.theta_shrunk");
    TotalAttempts += G.Run.Stat.get("swift.bu_triggers") +
                     G.Run.Stat.get("swift.bu_postponed");
  }
  // Every trigger attempt under Yellow passes the theta-shrink point
  // first, so attempts imply shrinks (some seed certainly triggers).
  ASSERT_GT(TotalAttempts, 0u);
  EXPECT_GT(TotalShrunk, 0u);
}

TEST(DegradeTest, RedSuppressesBottomUpEntirely) {
  uint64_t TotalSuppressed = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);

    GovernedRunOptions GO;
    GO.Config.K = 0;
    GO.Config.Theta = 2;
    GO.Limits.MaxSteps = 1u << 30;
    GO.Limits.YellowAt = 0.0;
    GO.Limits.RedAt = 0.0;
    TsGovernedResult G = runTypestateGoverned(Ctx, GO);

    ASSERT_FALSE(G.Partial);
    EXPECT_EQ(G.Peak, Pressure::Red);
    // Under Red no bottom-up analysis runs: the hybrid behaves as pure TD.
    EXPECT_EQ(G.Run.ErrorSites, Td.ErrorSites) << "seed " << Seed;
    EXPECT_EQ(G.Run.ErrorPoints, Td.ErrorPoints) << "seed " << Seed;
    EXPECT_EQ(G.Run.MainExit, Td.MainExit) << "seed " << Seed;
    EXPECT_EQ(G.Run.BuRelations, 0u) << "seed " << Seed;
    EXPECT_EQ(G.Run.Stat.get("budget.sync_bu_steps"), 0u);
    TotalSuppressed += G.Run.Stat.get("gov.bu_suppressed");
  }
  EXPECT_GT(TotalSuppressed, 0u); // some seed certainly triggers
}

TEST(GovernedRunTest, BudgetPhaseAttributionAddsUp) {
  std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(3));
  TsContext Ctx(*Prog, Prog->spec(0).name());

  GovernedRunOptions GO;
  GO.Config.K = 1;
  GO.Config.Theta = 2;
  TsGovernedResult G = runTypestateGoverned(Ctx, GO);
  ASSERT_FALSE(G.Partial);

  uint64_t TdSteps = G.Run.Stat.get("budget.td_steps");
  uint64_t SyncBu = G.Run.Stat.get("budget.sync_bu_steps");
  EXPECT_GT(TdSteps, 0u);
  if (G.Run.Stat.get("swift.bu_triggers") > 0) {
    EXPECT_GT(SyncBu, 0u);
  }
  // Every step the budget accepted is attributed to exactly one phase.
  EXPECT_EQ(TdSteps + SyncBu, G.Run.Steps);

  // The same partition at tiny budgets, where runs stop inside a
  // triggered bottom-up solve, at one and at four wavefront workers.
  // Budget::steps() then also counts the rejected step of each thread
  // that saw the exhausted budget first: the top-down loop, or the
  // workers of the solve in flight (the Budget overshoot contract).
  uint64_t Partial = 0, Triggered = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    std::unique_ptr<Program> P = generateFuzzProgram(fuzzCfg(Seed));
    TsContext C(*P, P->spec(0).name());
    for (uint64_t MaxSteps :
         {uint64_t(40), uint64_t(120), uint64_t(400), uint64_t(1u << 30)})
      for (unsigned Threads : {1u, 4u}) {
        GovernedRunOptions SO;
        SO.Config.K = 0; // trigger bottom-up immediately
        SO.Config.Theta = 2;
        SO.Config.Threads = Threads;
        SO.Limits.MaxSteps = MaxSteps;
        TsGovernedResult R = runTypestateGoverned(C, SO);

        uint64_t Td = R.Run.Stat.get("budget.td_steps");
        uint64_t Bu = R.Run.Stat.get("budget.sync_bu_steps");
        EXPECT_LE(Td + Bu, R.Run.Steps)
            << "seed " << Seed << " budget " << MaxSteps << " threads "
            << Threads;
        EXPECT_LE(R.Run.Steps, Td + Bu + Threads)
            << "seed " << Seed << " budget " << MaxSteps << " threads "
            << Threads;
        EXPECT_EQ(Bu, R.Run.Stat.get("bu.steps"))
            << "seed " << Seed << " budget " << MaxSteps << " threads "
            << Threads;
        if (!R.Partial) {
          EXPECT_EQ(Td + Bu, R.Run.Steps)
              << "seed " << Seed << " budget " << MaxSteps << " threads "
              << Threads;
        }
        Partial += R.Partial ? 1 : 0;
        Triggered += R.Run.Stat.get("swift.bu_triggers") != 0 ? 1 : 0;
      }
  }
  // The sweep covers both outcomes: tiny budgets cut runs short, and the
  // large one lets triggered solves finish and install.
  EXPECT_GT(Partial, 0u);
  EXPECT_GT(Triggered, 0u);
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, TextRoundTripIsExact) {
  int RoundTrips = 0;
  for (uint64_t Seed : {1u, 4u, 7u}) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);

    GovernedRunOptions GO = tdOptions(std::max<uint64_t>(5, Td.Steps / 2));
    TsTabSnapshot Snap;
    GO.CheckpointOut = &Snap;
    TsGovernedResult G = runTypestateGoverned(Ctx, GO);
    if (!G.Partial)
      continue; // tiny program finished anyway
    ++RoundTrips;

    TsCheckpoint C;
    C.Config = GO.Config;
    C.TrackedClass = Prog->symbols().text(Prog->spec(0).name());
    C.StepsConsumed = Snap.StepsConsumed;
    C.Snapshot = Snap;

    std::string Text = checkpointToText(*Prog, C);
    ParsedCheckpoint PC = parseCheckpointText(Text);
    EXPECT_EQ(PC.Checkpoint.TrackedClass, C.TrackedClass);
    EXPECT_EQ(PC.Checkpoint.StepsConsumed, C.StepsConsumed);
    EXPECT_EQ(PC.Checkpoint.Config.K, C.Config.K);
    EXPECT_EQ(PC.Checkpoint.Config.Theta, C.Config.Theta);
    // print(parse(print(x))) == print(x): the parse lost nothing.
    EXPECT_EQ(checkpointToText(*PC.Prog, PC.Checkpoint), Text)
        << "seed " << Seed;
  }
  EXPECT_GT(RoundTrips, 0); // some seed certainly needs more than half
}

TEST(CheckpointTest, MalformedTextIsRejected) {
  EXPECT_THROW(parseCheckpointText("not a checkpoint"),
               std::runtime_error);
  EXPECT_THROW(parseCheckpointText("swift-ckpt v1\n"), std::runtime_error);
}

TEST(CheckpointTest, TdResumeIsBitIdenticalToUninterrupted) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);
    ASSERT_FALSE(Td.Timeout);

    // Interrupt at roughly half the steps; round-trip the checkpoint
    // through text (as a real save/load would); resume unlimited.
    GovernedRunOptions GO = tdOptions(std::max<uint64_t>(10, Td.Steps / 2));
    TsTabSnapshot Snap;
    GO.CheckpointOut = &Snap;
    TsGovernedResult Cut = runTypestateGoverned(Ctx, GO);
    if (!Cut.Partial)
      continue; // tiny program finished anyway; nothing to resume

    TsCheckpoint C;
    C.Config = GO.Config;
    C.TrackedClass = Prog->symbols().text(Prog->spec(0).name());
    C.StepsConsumed = Snap.StepsConsumed;
    C.Snapshot = std::move(Snap);
    ParsedCheckpoint PC = parseCheckpointText(checkpointToText(*Prog, C));

    TsContext ResumedCtx(
        *PC.Prog,
        PC.Prog->symbols().intern(PC.Checkpoint.TrackedClass));
    GovernedRunOptions RO;
    RO.Config = PC.Checkpoint.Config;
    RO.ResumeFrom = &PC.Checkpoint.Snapshot;
    TsGovernedResult Resumed = runTypestateGoverned(ResumedCtx, RO);

    ASSERT_FALSE(Resumed.Partial) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.ErrorSites, Td.ErrorSites) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.ErrorPoints, Td.ErrorPoints) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.MainExit, Td.MainExit) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.TdSummaries, Td.TdSummaries) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.TdSummariesPerProc, Td.TdSummariesPerProc)
        << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.BuRelations, 0u);
  }
}

TEST(CheckpointTest, HybridResumeCoincidesWithTd) {
  // Hybrid checkpoints drop bottom-up caches (re-derivable, and Sigma
  // makes skipping them sound), so the resumed run coincides with TD on
  // observable results rather than being bit-identical in summary counts.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);
    ASSERT_FALSE(Td.Timeout);

    GovernedRunOptions GO;
    GO.Config.K = 1;
    GO.Config.Theta = 1;
    GO.Limits.MaxSteps = std::max<uint64_t>(10, Td.Steps / 2);
    TsTabSnapshot Snap;
    GO.CheckpointOut = &Snap;
    TsGovernedResult Cut = runTypestateGoverned(Ctx, GO);
    if (!Cut.Partial)
      continue;

    TsCheckpoint C;
    C.Config = GO.Config;
    C.TrackedClass = Prog->symbols().text(Prog->spec(0).name());
    C.Snapshot = std::move(Snap);
    ParsedCheckpoint PC = parseCheckpointText(checkpointToText(*Prog, C));

    TsContext ResumedCtx(
        *PC.Prog,
        PC.Prog->symbols().intern(PC.Checkpoint.TrackedClass));
    GovernedRunOptions RO;
    RO.Config = PC.Checkpoint.Config;
    RO.ResumeFrom = &PC.Checkpoint.Snapshot;
    TsGovernedResult Resumed = runTypestateGoverned(ResumedCtx, RO);

    ASSERT_FALSE(Resumed.Partial) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.ErrorSites, Td.ErrorSites) << "seed " << Seed;
    EXPECT_EQ(Resumed.Run.MainExit, Td.MainExit) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Fault injection: gov.tick simulates a sudden resource exhaustion
//===----------------------------------------------------------------------===//

TEST(GovernorTest, GovTickFailpointExhaustsAndLatchesRed) {
  failpoint::ScopedArm Arm("gov.tick=nth(2)");
  ResourceGovernor Gov(GovernorLimits{}); // everything unlimited
  Gov.recompute();                        // hit 1: no fire
  EXPECT_EQ(Gov.level(), Pressure::Green);
  EXPECT_FALSE(Gov.budget().exhausted());
  Gov.recompute(); // hit 2: injected exhaustion
  EXPECT_TRUE(Gov.budget().exhausted());
  EXPECT_EQ(Gov.level(), Pressure::Red);
  EXPECT_EQ(Gov.fraction(), 1.0);
}

TEST(GovernedRunTest, GovTickInjectionYieldsPartialButSoundResult) {
  // An unlimited-budget run hit by an injected exhaustion behaves exactly
  // like a genuine budget run-out: partial, and a sound subset.
  for (uint64_t Seed : {1u, 3u, 5u}) {
    std::unique_ptr<Program> Prog = generateFuzzProgram(fuzzCfg(Seed));
    TsContext Ctx(*Prog, Prog->spec(0).name());
    TsRunResult Td = runTypestateTd(Ctx);
    ASSERT_FALSE(Td.Timeout);

    // nth(1) fires at the solver's first governor poll — the only
    // recompute a short run is guaranteed to reach before finishing.
    failpoint::ScopedArm Arm("gov.tick=nth(1)");
    TsGovernedResult G = runTypestateGoverned(Ctx, tdOptions());
    EXPECT_TRUE(G.Partial) << "seed " << Seed;
    EXPECT_EQ(G.Peak, Pressure::Red);
    for (SiteId S : G.Run.ErrorSites)
      EXPECT_TRUE(Td.ErrorSites.count(S))
          << "seed " << Seed << ": injected-exhaustion run reported error @"
          << S << " that the full run does not";
    for (uint32_t S = 0; S != Prog->numSites(); ++S) {
      if (Ctx.isTrackedSite(S)) {
        EXPECT_NE(G.Verdicts[S], TsVerdict::Proved) << "seed " << Seed;
      }
    }
  }
}

} // namespace
