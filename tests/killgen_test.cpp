//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the second framework instantiation: the kill/gen taint
/// analysis of Section 5.2. Checks basic taint propagation through copies,
/// fields, and calls, and the TD / SWIFT / BU coincidence on fuzzed
/// programs (the framework's correctness is analysis-agnostic).
///
//===----------------------------------------------------------------------===//

#include "genprog/Fuzzer.h"
#include "killgen/KgRunner.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

using namespace swift;

namespace {

KgContext makeCtx(const Program &Prog) {
  std::set<Symbol> Sources{
      const_cast<Program &>(Prog).symbols().intern("File")};
  std::set<Symbol> Sinks{const_cast<Program &>(Prog).symbols().intern("open")};
  return KgContext(Prog, std::move(Sources), std::move(Sinks));
}

TEST(KillGenTest, DirectLeak) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; }
    proc main() {
      v = new File;
      v.open();
    }
  )");
  KgContext Ctx = makeCtx(*Prog);
  KgRunResult R = runTaintTd(Ctx);
  EXPECT_EQ(R.Leaks.size(), 1u);
}

TEST(KillGenTest, LeakThroughCopyAndCall) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; s -close-> s; }
    proc main() {
      v = new File;
      w = v;
      use(w);
      u = new File;
      u.close();    // close is not a sink
    }
    proc use(f) { f.open(); }
  )");
  KgContext Ctx = makeCtx(*Prog);
  KgRunResult Td = runTaintTd(Ctx);
  EXPECT_EQ(Td.Leaks.size(), 1u);
  ProcId Use = Prog->procId(Prog->symbols().intern("use"));
  EXPECT_EQ(Td.Leaks.begin()->first, Use);
}

TEST(KillGenTest, LeakThroughHeapField) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; }
    typestate Box { start b; error eb; }
    proc main() {
      v = new File;
      b = new Box;
      b.slot = v;
      w = b.slot;
      w.open();
    }
  )");
  KgContext Ctx = makeCtx(*Prog);
  EXPECT_EQ(runTaintTd(Ctx).Leaks.size(), 1u);
}

TEST(KillGenTest, KillByOverwrite) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; }
    typestate Clean { start c; error ec; c -open-> c; }
    proc main() {
      v = new File;
      v = new Clean;   // kills v's taint
      v.open();
    }
  )");
  KgContext Ctx = makeCtx(*Prog);
  EXPECT_TRUE(runTaintTd(Ctx).Leaks.empty());
}

TEST(KillGenTest, ReturnValuePropagatesTaint) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; }
    proc make() { t = new File; return t; }
    proc main() {
      x = make();
      x.open();
    }
  )");
  KgContext Ctx = makeCtx(*Prog);
  EXPECT_EQ(runTaintTd(Ctx).Leaks.size(), 1u);
}

/// The synthesis contract of Section 5.2: kgAffected must be the exact
/// kill/gen footprint — every fact outside it passes through every
/// command unchanged, and rtrans of the identity relation is
/// gamma-equivalent to the fact-level transfer (C1 with r = id).
TEST(KillGenTest, FootprintIsExact) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; s -close-> s; }
    proc main() {
      a = new File;
      b = a;
      a.fld = b;
      c = a.fld;
      c.open();
      b.close();
      b = null;
    }
  )");
  KgContext Ctx = makeCtx(*Prog);
  ProcId Main = Prog->mainProc();
  const Procedure &Proc = Prog->proc(Main);

  // The enumerable fact universe of this program.
  std::vector<KgFact> Facts{KgFact::lambda()};
  for (Symbol V : Proc.vars())
    Facts.push_back(KgFact::var(V));
  for (Symbol F : Ctx.allFields())
    Facts.push_back(KgFact::field(F));
  Facts.push_back(KgFact::leak(Main, 5));

  for (NodeId N : Proc.reachableRpo()) {
    const Command &Cmd = Proc.node(N).Cmd;
    if (Cmd.Kind == CmdKind::Call || Cmd.Kind == CmdKind::Nop)
      continue;
    std::vector<KgFact> Affected = kgAffected(Ctx, Cmd);
    auto IsAffected = [&](const KgFact &F) {
      for (const KgFact &A : Affected)
        if (A == F)
          return true;
      return false;
    };
    for (const KgFact &F : Facts) {
      std::vector<KgFact> Out = kgTransfer(Ctx, Main, Cmd, F);
      if (!F.isLambda() && !IsAffected(F)) {
        ASSERT_EQ(Out.size(), 1u) << Cmd.str(*Prog) << " " << F.str(*Prog);
        EXPECT_EQ(Out[0], F) << Cmd.str(*Prog) << " " << F.str(*Prog);
      }
      // C1 with r = id: rtrans(id) applied to F equals transfer(F),
      // for non-Lambda facts (Lambda flows via lambdaEmits).
      if (!F.isLambda()) {
        std::set<KgFact> Lhs, Rhs(Out.begin(), Out.end());
        for (const KgRel &R :
             KgAnalysis::rtrans(Ctx, Main, Cmd, KgRel::identity()))
          if (std::optional<KgFact> O = KgAnalysis::applyRel(Ctx, R, F))
            Lhs.insert(*O);
        EXPECT_EQ(Lhs, Rhs) << Cmd.str(*Prog) << " " << F.str(*Prog);
      }
    }
  }
}

class KgCoincidenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KgCoincidenceTest, SwiftAndBuAgreeWithTd) {
  FuzzConfig FC;
  FC.Seed = GetParam() * 31 + 5;
  FC.NumProcs = 3 + GetParam() % 3;
  FC.StmtsPerProc = 6 + GetParam() % 5;
  FC.NumVars = 3;
  std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
  KgContext Ctx = makeCtx(*Prog);

  RunLimits L;
  L.MaxSteps = 5'000'000;
  L.MaxSeconds = 20;
  KgRunResult Td = runTaintTd(Ctx, L);
  ASSERT_FALSE(Td.Timeout);

  for (auto [K, Theta] :
       {std::pair<uint64_t, uint64_t>{1, 1}, {2, 1}, {2, 4}}) {
    KgRunResult Sw = runTaintSwift(Ctx, K, Theta, L);
    ASSERT_FALSE(Sw.Timeout);
    EXPECT_EQ(Sw.Leaks, Td.Leaks)
        << "seed=" << FC.Seed << " k=" << K << " theta=" << Theta;
  }

  KgRunResult Bu = runTaintBu(Ctx, L);
  if (!Bu.Timeout) {
    EXPECT_EQ(Bu.Leaks, Td.Leaks) << "seed=" << FC.Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KgCoincidenceTest,
                         ::testing::Range<uint64_t>(1, 31));

} // namespace
