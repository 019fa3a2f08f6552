//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Directed tests of framework mechanics that the property tests only
/// exercise statistically: the observation manifest (errors on diverging
/// paths inside served callees), Lambda flow through never-returning
/// callees, trigger postponement, budget exhaustion, summary degradation
/// soundness, the bottom-up solver's per-SCC analysis schedule, and the
/// reuse of installed summaries across triggers with their one refresh.
///
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"
#include "typestate/Runner.h"

#include <gtest/gtest.h>

using namespace swift;

namespace {

/// A callee that errs and then diverges: the error never reaches its
/// exit relations, so only the observation manifest can report it for
/// summary-served contexts.
const char *DivergingError = R"(
  typestate File { start c; error e; c -open-> o; o -close-> c; }
  proc spin(x) { spin(x); }
  proc bad(f) {
    if (*) {
      f.close();    // protocol violation (still closed)
      spin(f);      // ... and the path never returns
    }
  }
  proc main() {
    a = new File; bad(a);
    b = new File; bad(b);
    d = new File; bad(d);
    g = new File; bad(g);
  }
)";

TEST(FrameworkTest, ObservationManifestCatchesDivergingErrors) {
  std::unique_ptr<Program> Prog = parseProgram(DivergingError);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  // TD ground truth: all four sites err.
  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_EQ(Td.ErrorSites.size(), 4u);

  // SWIFT serves calls from summaries (if it served nothing the
  // comparison would be vacuous) and, through the manifest, still reports
  // exactly the same sites and main-exit states.
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 8);
  ASSERT_GT(Sw.Stat.get("td.bu_served_calls"), 0u);
  EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
}

TEST(FrameworkTest, NeverReturningCalleeBlocksLambda) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc forever() { forever(); }
    proc main() {
      a = new File;
      forever();
      b = new File;   // unreachable in any terminating sense
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  // Nothing flows past the non-returning call: main's exit is empty.
  EXPECT_TRUE(Td.MainExit.empty());

  // The same through bottom-up summaries.
  TsRunResult Bu = runTypestateBu(Ctx);
  ASSERT_FALSE(Bu.Timeout);
  EXPECT_TRUE(Bu.MainExit.empty());
}

TEST(FrameworkTest, TriggerPostponedUntilCalleesSeen) {
  // f's callee g is only reachable through f itself; on the very first
  // flood of distinct states into f, g has not been entered yet, so the
  // first trigger attempts postpone (the paper's Section 4 scenario 1).
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc g(x) { x.open(); x.close(); }
    proc f(y) { g(y); }
    proc main() {
      a = new File; f(a);
      b = new File; f(b);
      d = new File; f(d);
      h = new File; f(h);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 2);
  // Eventually triggers (g gets entered during f's own top-down
  // analysis); some earlier attempts may postpone. Either way the result
  // is coincident.
  TsRunResult Td = runTypestateTd(Ctx);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
  EXPECT_GE(Sw.Stat.get("swift.bu_triggers") +
                Sw.Stat.get("swift.bu_postponed"),
            1u);
}

TEST(FrameworkTest, BudgetExhaustionIsReportedNotFatal) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc use(x) { x.open(); x.close(); }
    proc main() {
      while (*) {
        v = new File;
        use(v);
      }
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  RunLimits Tight;
  Tight.MaxSteps = 10;
  TsRunResult R = runTypestateSwift(Ctx, 2, 1, Tight);
  EXPECT_TRUE(R.Timeout);
  // Partial results are well-formed (no crash, counts consistent).
  EXPECT_LE(R.Steps, 12u);
}

/// Call composition polls the wall clock once per input relation. One
/// call node can compose tens of thousands of input relations with a
/// large callee summary for as many budget steps, and step() reads the
/// clock only every 4096 steps, so without the poll such a node ran far
/// past its wall limit. Here the limit has passed before the solve
/// starts and the whole solve takes fewer than 4096 steps: only the poll
/// can stop it.
TEST(FrameworkTest, CallCompositionPollsTheWallClock) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc use(x) { x.open(); x.close(); }
    proc main() { a = new File; use(a); }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Unlimited = runTypestateBu(Ctx);
  ASSERT_FALSE(Unlimited.Timeout);
  ASSERT_LT(Unlimited.Steps, 4096u);
  RunLimits Spent;
  Spent.MaxSeconds = 0;
  EXPECT_TRUE(runTypestateBu(Ctx, Spent).Timeout);
}

/// A pathological recursive SCC whose pruned summaries would keep
/// refining: degradation must kick in, and the result must still be
/// coincident with TD.
TEST(FrameworkTest, DegradedSummariesStayCoincident) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc twist(x, y) {
      if (*) { x.open(); x.close(); }
      if (*) { twist(y, x); }
      if (*) { y.open(); y.close(); }
    }
    proc main() {
      a = new File; b = new File;
      twist(a, b);
      twist(b, a);
      d = new File; twist(d, d);
      g = new File; twist(g, a);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  for (uint64_t Theta : {1u, 2u}) {
    TsRunResult Sw = runTypestateSwift(Ctx, 1, Theta);
    ASSERT_FALSE(Sw.Timeout);
    // twist's summary still changes in every one of the guard's rounds,
    // and the SCC is degraded after the last.
    EXPECT_EQ(Sw.Stat.get("bu.proc_analyses"), MaxSccIterations)
        << "theta " << Theta;
    EXPECT_EQ(Sw.Stat.get("bu.scc_degraded"), 1u) << "theta " << Theta;
    EXPECT_EQ(Sw.MainExit, Td.MainExit) << "theta " << Theta;
    EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites) << "theta " << Theta;
  }
}

/// TD as a special case: with the trigger disabled no bottom-up work
/// happens at all.
TEST(FrameworkTest, PureTopDownNeverTriggers) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc use(x) { x.open(); x.close(); }
    proc main() {
      a = new File; use(a);
      b = new File; use(b);
      d = new File; use(d);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  EXPECT_EQ(Td.Stat.get("swift.bu_triggers"), 0u);
  EXPECT_EQ(Td.Stat.get("td.bu_served_calls"), 0u);
  EXPECT_EQ(Td.BuRelations, 0u);
}

/// The bottom-up schedule is change-driven: a procedure is re-analyzed
/// only when a callee summary it reads changed. Each case pins the exact
/// number of analyses and rounds, and the result still agrees with TD.
TEST(FrameworkTest, BottomUpScheduleIsChangeDriven) {
  struct Case {
    const char *Name;
    const char *Procs;
    uint64_t Analyses, Rounds;
    size_t ErrorSites; ///< TD's, so the BU comparison is not vacuous.
  };
  const Case Cases[] = {
      // Every callee is final before its caller runs: each reachable
      // procedure is analyzed once, in one round per SCC.
      {"acyclic chain", R"(
        proc leaf(x) { x.open(); x.close(); }
        proc mid(x) { leaf(x); }
        proc top(x) { mid(x); leaf(x); }
        proc unused(x) { x.close(); }
        proc main() { a = new File; top(a); b = new File; mid(b); b.close(); }
      )", 4, 4, 1},
      // walk reads its own summary, which changes in its first two
      // rounds: three rounds for walk, one for main.
      {"self recursion", R"(
        proc walk(x) { if (*) { x.open(); x.close(); walk(x); } }
        proc main() { a = new File; walk(a); a.close(); }
      )", 4, 4, 1},
      // {ping, pong} under a non-recursive caller: both change in the
      // first two rounds; the third re-analyzes only ping, whose callee
      // pong changed last. main: one round.
      {"mutual recursion", R"(
        proc ping(x) { if (*) { x.open(); pong(x); } }
        proc pong(x) { if (*) { x.close(); ping(x); } else { x.open(); } }
        proc main() {
          a = new File; ping(a); a.close();
          b = new File; pong(b);
        }
      )", 6, 4, 2},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<Program> Prog = parseProgram(
        std::string("typestate File { start c; error e; c -open-> o; "
                    "o -close-> c; }\n") +
        C.Procs);
    TsContext Ctx(*Prog, Prog->symbols().intern("File"));
    TsRunResult Bu = runTypestateBu(Ctx);
    ASSERT_FALSE(Bu.Timeout);
    EXPECT_EQ(Bu.Stat.get("bu.proc_analyses"), C.Analyses);
    EXPECT_EQ(Bu.Stat.get("bu.scc_iterations"), C.Rounds);
    EXPECT_EQ(Bu.Stat.get("bu.scc_degraded"), 0u);
    TsRunResult Td = runTypestateTd(Ctx);
    EXPECT_EQ(Td.ErrorSites.size(), C.ErrorSites);
    EXPECT_EQ(Bu.ErrorSites, Td.ErrorSites);
    EXPECT_EQ(Bu.MainExit, Td.MainExit);
  }
}

/// f and g each trip k = 1 and share the callee chain c1 -> c2 -> c3.
const char *SharedChain = R"(
  typestate File { start c; error e; c -open-> o; o -close-> c; }
  proc c3(x) { x.open(); x.close(); }
  proc c2(x) { c3(x); }
  proc c1(x) { c2(x); }
  proc f(x) { c1(x); }
  proc g(x) { c1(x); }
  proc main() {
    a = new File; f(a);
    b = new File; f(b);
    d = new File; g(d);
    h = new File; g(h);
    z = new File; z.close();
  }
)";

/// A trigger solves only the part of its callee closure that no earlier
/// trigger summarized: f's trigger analyzes f and the chain, g's only g
/// and reuses the chain's three summaries.
TEST(FrameworkTest, TriggersReuseInstalledSummaries) {
  std::unique_ptr<Program> Prog = parseProgram(SharedChain);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_EQ(Td.ErrorSites.size(), 1u);

  TsRunResult Sw = runTypestateSwift(Ctx, 1, 8);
  ASSERT_FALSE(Sw.Timeout);
  EXPECT_EQ(Sw.Stat.get("swift.bu_triggers"), 2u);
  EXPECT_EQ(Sw.Stat.get("bu.proc_analyses"), 5u);
  EXPECT_EQ(Sw.Stat.get("swift.bu_reused"), 3u);
  EXPECT_EQ(Sw.Stat.get("swift.bu_refreshes"), 0u);
  ASSERT_GT(Sw.Stat.get("td.bu_served_calls"), 0u);
  EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
}

/// At theta = 1 the chain's summaries, pruned under the frequencies of
/// f's trigger, refuse what g brings them and are refreshed. A refreshed
/// summary replaces the old one in the governor's memory estimate too:
/// what stays charged is exactly what is installed.
TEST(FrameworkTest, RefreshReleasesTheReplacedSummarysCharge) {
  std::unique_ptr<Program> Prog = parseProgram(SharedChain);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  ResourceGovernor Gov(GovernorLimits{});
  Stats Stat;
  TabulationSolver<TsAnalysis>::Config Cfg;
  Cfg.K = 1;
  Cfg.Theta = 1;
  Cfg.Gov = &Gov;
  TabulationSolver<TsAnalysis> Solver(Ctx, *Prog, Ctx.callGraph(), Cfg,
                                      Gov.budget(), Stat);
  ASSERT_TRUE(Solver.run());
  ASSERT_GT(Stat.get("swift.bu_refreshes"), 0u);

  uint64_t Installed = 0;
  for (ProcId P = 0; P != Prog->numProcs(); ++P)
    if (Solver.buDefined(P))
      Installed += TabulationSolver<TsAnalysis>::buSummaryBytes(
          Solver.buSummary(P));
  ASSERT_GT(Installed, 0u);
  EXPECT_EQ(Solver.buChargedBytes(), Installed);
  EXPECT_LE(Solver.buChargedBytes(), Gov.memoryBytes());

  // The refreshed run still coincides with TD.
  TsRunResult Td = runTypestateTd(Ctx);
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 1);
  EXPECT_GT(Sw.Stat.get("swift.bu_refreshes"), 0u);
  EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
}

} // namespace
