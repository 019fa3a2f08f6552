//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the client-domain layer: the interval transformer
/// algebra (the C2 exactness the relational summaries rely on), the
/// per-client abstract semantics on handcrafted programs, the kill/gen
/// contract of the IFDS clients (the exact footprint the bottom-up
/// synthesis of the paper's Section 5.2 relies on), the taint client's
/// directed cases and its verdicts pinned against
/// tests/corpus/taint_leaks.txt, every domain's concrete witness pinned
/// against tests/corpus/witness_digests.txt (re-recording for both:
/// tests/RecordedDigests.h), and the in-process sharded-BU wavefront
/// smoke (worker count never changes any result).
///
//===----------------------------------------------------------------------===//

#include "RecordedDigests.h"
#include "clients/Concrete.h"
#include "clients/Registry.h"
#include "clients/TestHooks.h"
#include "clients/ifds/IfdsAnalysis.h"
#include "clients/ifds/NullDerefProblem.h"
#include "clients/ifds/ReachingDefsProblem.h"
#include "clients/ifds/TaintProblem.h"
#include "clients/interval/IntervalDomain.h"
#include "difftest/Difftest.h"
#include "genprog/Fuzzer.h"
#include "genprog/Generator.h"
#include "genprog/Workloads.h"
#include "ir/Dumper.h"
#include "lang/Lower.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace swift;
using namespace swift::clients;

namespace {

//===----------------------------------------------------------------------===//
// Interval transformer algebra
//===----------------------------------------------------------------------===//

std::vector<interval::Transformer> sampleTransformers() {
  using T = interval::Transformer;
  std::vector<T> Out{T::identity(),    T::inc(),
                     T::dec(),         T::constant(0),
                     T::constant(2),   T::step(0),
                     T::normalize(2, interval::Neg, 1),
                     T::normalize(-2, -1, interval::Pos)};
  return Out;
}

std::vector<int> sampleValues() {
  std::vector<int> Vs{interval::Neg, interval::Pos};
  for (int V = -interval::Cap; V <= interval::Cap; ++V)
    Vs.push_back(V);
  return Vs;
}

TEST(IntervalTransformer, ComposeIsPointwiseExact) {
  // C2 for the interval family: compose(G, F) computes exactly G after F
  // on every representable counter value, so call-site composition in the
  // relational solver loses no precision.
  for (const auto &G : sampleTransformers())
    for (const auto &F : sampleTransformers()) {
      interval::Transformer C = compose(G, F);
      for (int V : sampleValues())
        EXPECT_EQ(C.eval(V), G.eval(F.eval(V)))
            << "G=" << G.str() << " F=" << F.str() << " V=" << V;
    }
}

TEST(IntervalTransformer, ComposeIsCanonical) {
  // Structural equality must be semantic equality after compose: composing
  // two canonical transformers yields the canonical form again, so the
  // solver's relation dedup works.
  for (const auto &G : sampleTransformers())
    for (const auto &F : sampleTransformers()) {
      interval::Transformer C = compose(G, F);
      interval::Transformer CC = compose(C, interval::Transformer::identity());
      EXPECT_EQ(C, CC) << "G=" << G.str() << " F=" << F.str();
    }
}

TEST(IntervalTransformer, ApplyMapsEndpoints) {
  for (const auto &T : sampleTransformers())
    for (int Lo = -interval::Cap; Lo <= interval::Cap; ++Lo)
      for (int Hi = Lo; Hi <= interval::Cap; ++Hi) {
        interval::Interval I{Lo, Hi};
        interval::Interval A = T.apply(I);
        for (int V = Lo; V <= Hi; ++V)
          EXPECT_TRUE(A.contains(T.eval(V)))
              << T.str() << " on " << I.str();
      }
}

//===----------------------------------------------------------------------===//
// Registry surface
//===----------------------------------------------------------------------===//

TEST(ClientRegistry, DomainNamesAndLookup) {
  const auto &Names = clientDomainNames();
  ASSERT_EQ(Names.size(), 4u);
  EXPECT_EQ(Names[0], "taint");
  EXPECT_EQ(Names[1], "nullderef");
  EXPECT_EQ(Names[2], "reachdefs");
  EXPECT_EQ(Names[3], "interval");
  for (const std::string &N : Names)
    EXPECT_TRUE(isClientDomain(N));
  EXPECT_FALSE(isClientDomain("typestate"));
  EXPECT_FALSE(isClientDomain("bogus"));
}

TEST(ClientRegistry, UnknownDomainThrows) {
  auto Prog = parseProgramText("typestate File {\n"
                               "  states closed opened err\n"
                               "  init closed\n"
                               "  error err\n"
                               "  method open = opened err err\n"
                               "}\n"
                               "proc main() entry 0 exit 1 nodes 2 {\n"
                               "  0: nop -> 1\n"
                               "  1: nop ->\n"
                               "}\n"
                               "main main\n");
  ASSERT_NE(Prog, nullptr);
  EXPECT_THROW(runClientDomain("bogus", *Prog, DomainMode::Td, 1, 1, 1),
               std::runtime_error);
}

/// The typestate adapter is the runner's result, normalized: error sites
/// become their allocations' points (Program::site), error points report
/// points, and main-exit states their rendered text. The corpus programs
/// report errors only under the fault they were reduced for, so each
/// runs with the fault off and on.
TEST(ClientRegistry, TypestateAdapterMatchesTheRunner) {
  size_t Reported = 0;
  for (bool Fault : {false, true})
    for (const char *Name : {"seed15", "seed16", "seed18"}) {
      SCOPED_TRACE(std::string(Name) + (Fault ? " with the fault" : ""));
      std::ifstream IS(std::string(SWIFT_CORPUS_DIR) + "/" + Name +
                       ".swiftir");
      std::stringstream Buf;
      Buf << IS.rdbuf();
      std::unique_ptr<Program> Prog = parseProgramText(Buf.str());
      TsContext Ctx(*Prog, Prog->spec(0).name());
      auto At = [&Prog](SiteId S) {
        return Point{Prog->site(S).Proc, Prog->site(S).Node};
      };
      clients::test::injectDomainBug("typestate", Fault);
      const std::pair<DomainMode, TsRunResult> Runs[] = {
          {DomainMode::Td, runTypestateTd(Ctx)},
          {DomainMode::Swift, runTypestateSwift(Ctx, 1, 2)},
          {DomainMode::Bu, runTypestateBu(Ctx)}};
      for (const auto &[Mode, Ts] : Runs) {
        DomainRunResult R = runClientDomain("typestate", *Prog, Mode, 1, 2, 1);
        std::set<Point> Sites;
        for (SiteId S : Ts.ErrorSites)
          Sites.insert(At(S));
        std::set<std::pair<Point, Point>> Points;
        for (const TsError &E : Ts.ErrorPoints)
          Points.insert({At(E.Site), {E.Proc, E.Node}});
        std::set<std::string> Exit;
        for (const TsAbstractState &St : Ts.MainExit)
          Exit.insert(St.str(*Prog));
        EXPECT_EQ(R.Reports, Sites);
        EXPECT_EQ(R.ReportPoints, Points);
        EXPECT_EQ(R.ExitFacts, Exit);
        EXPECT_FALSE(R.ExitFacts.empty());
        EXPECT_EQ(R.TdSummariesPerProc, Ts.TdSummariesPerProc);
        EXPECT_EQ(R.BuRelations, Ts.BuRelations);
        Reported += R.Reports.size();
      }
      clients::test::injectDomainBug("typestate", false);
    }
  EXPECT_GT(Reported, 0u); // Not vacuous.
}

//===----------------------------------------------------------------------===//
// Handcrafted per-client semantics
//===----------------------------------------------------------------------===//

const char *TsHeader = "typestate File {\n"
                       "  states closed opened err\n"
                       "  init closed\n"
                       "  error err\n"
                       "  method close = err closed err\n"
                       "  method open = opened err err\n"
                       "  method reset = closed closed err\n"
                       "}\n";

std::unique_ptr<Program> parse(const std::string &Body) {
  auto Prog = parseProgramText(TsHeader + Body + "main main\n");
  EXPECT_NE(Prog, nullptr);
  return Prog;
}

/// Runs \p Domain in all three modes and checks reports and exit facts
/// coincide (Theorem 3.1 on the client layer), returning the TD result.
DomainRunResult runAllModes(const std::string &Domain, const Program &P) {
  DomainRunResult Td = runClientDomain(Domain, P, DomainMode::Td, 1, 1, 1);
  DomainRunResult Sw = runClientDomain(Domain, P, DomainMode::Swift, 1, 2, 1);
  DomainRunResult Bu = runClientDomain(Domain, P, DomainMode::Bu, 1, 1, 1);
  EXPECT_FALSE(Td.Timeout);
  EXPECT_EQ(Td.Reports, Sw.Reports) << Domain << ": swift reports";
  EXPECT_EQ(Td.ExitFacts, Sw.ExitFacts) << Domain << ": swift exit facts";
  EXPECT_EQ(Td.Reports, Bu.Reports) << Domain << ": bu reports";
  EXPECT_EQ(Td.ExitFacts, Bu.ExitFacts) << Domain << ": bu exit facts";
  return Td;
}

TEST(ClientSemantics, TaintFlowsThroughHeap) {
  auto P = parse("proc main() entry 0 exit 1 nodes 8 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: v1 = new File @1 -> 4\n"
                 "  4: v1.g0 = v0 -> 5\n"
                 "  5: v2 = v1.g0 -> 6\n"
                 "  6: v2.open() -> 7\n"
                 "  7: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("taint", *P);
  std::set<std::pair<ProcId, NodeId>> Want{{P->mainProc(), 6}};
  EXPECT_EQ(R.Reports, Want);
}

TEST(ClientSemantics, NullDerefThroughFieldAndDirect) {
  auto P = parse("proc main() entry 0 exit 1 nodes 8 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v1 = new File @0 -> 3\n"
                 "  3: v0 = null -> 4\n"
                 "  4: v1.g0 = v0 -> 5\n"
                 "  5: v2 = v1.g0 -> 6\n"
                 "  6: v2.open() -> 7\n"
                 "  7: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("nullderef", *P);
  // The loaded null dereferences at 6; the explicitly-null v0 never does.
  std::set<std::pair<ProcId, NodeId>> Want{{P->mainProc(), 6}};
  EXPECT_EQ(R.Reports, Want);
}

TEST(ClientSemantics, ReachingDefsKillsAndCallUntracks) {
  auto P = parse("proc q0() entry 0 exit 1 nodes 3 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: $ret = null -> 1\n"
                 "}\n"
                 "proc main() entry 0 exit 1 nodes 7 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: v0 = null -> 4\n"
                 "  4: v1 = new File @1 -> 5\n"
                 "  5: v1 = call q0() -> 6\n"
                 "  6: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("reachdefs", *P);
  // v0's alloc def is killed by the null assignment; v1's def is
  // untracked by the call; $ret's def at 6 survives.
  EXPECT_EQ(R.ExitFacts, (std::set<std::string>{"def(v0@main:3)",
                                                "def($ret@main:6)"}));
}

TEST(ClientSemantics, IntervalUnderflowAndFieldFacts) {
  auto P = parse("proc main() entry 0 exit 1 nodes 8 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: v0.open() -> 4\n"
                 "  4: v0.g0 = v0 -> 5\n"
                 "  5: v0.close() -> 6\n"
                 "  6: v0.close() -> 7\n"
                 "  7: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("interval", *P);
  // open raises the counter to 1, the field snapshot holds [1,1], the
  // first close is safe (counter 1), the second underflows (counter 0).
  std::set<std::pair<ProcId, NodeId>> Want{{P->mainProc(), 6}};
  EXPECT_EQ(R.Reports, Want);
  EXPECT_TRUE(R.ExitFacts.count("in(*.g0,[1,1])"))
      << "field fact missing";
}

TEST(ClientSemantics, IntervalCalleeStoreRoutesThroughCall) {
  // Regression for the bottom-up call footprint: an actual's value
  // funneled into a field by the callee must surface in the caller's
  // summary (the identity row alone would route it around the call).
  auto P = parse("proc q0(p0) entry 0 exit 1 nodes 3 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: p0.g0 = p0 -> 1\n"
                 "}\n"
                 "proc main() entry 0 exit 1 nodes 5 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: call q0(v0) -> 4\n"
                 "  4: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("interval", *P);
  EXPECT_TRUE(R.ExitFacts.count("in(*.g0,[0,0])"))
      << "callee field store lost";
}

//===----------------------------------------------------------------------===//
// The kill/gen family (Section 5.2): contract, taint cases, coincidence
//===----------------------------------------------------------------------===//

/// Expects the synthesis contract of Section 5.2 for \p Pb on its
/// program: for every non-call, non-nop command and every non-Lambda
/// fact, a fact outside affected(cmd) transfers to exactly itself, and
/// rtrans of the identity relation followed by applyRel equals transfer
/// (C1 with r = id). Stops at the first violation.
void expectFootprintExact(const ifds::IfdsProblem &Pb) {
  using ifds::FactId;
  using ifds::IfdsAnalysis;
  const Program &Prog = Pb.program();
  ifds::IfdsContext Ctx(Prog, Pb);
  std::vector<FactId> Affected, Out;
  for (ProcId P = 0; P != Prog.numProcs(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    for (NodeId N : Proc.reachableRpo()) {
      const Command &Cmd = Proc.node(N).Cmd;
      if (Cmd.Kind == CmdKind::Call || Cmd.Kind == CmdKind::Nop)
        continue;
      Affected.clear();
      Pb.affected(Cmd, Affected);
      std::sort(Affected.begin(), Affected.end());
      std::vector<IfdsAnalysis::Rel> FromId = IfdsAnalysis::rtrans(
          Ctx, P, Cmd, IfdsAnalysis::identityRel(Ctx));
      for (FactId F = 1; F != Pb.numFacts(); ++F) {
        Out.clear();
        Pb.transfer(P, Cmd, F, Out);
        auto Where = [&] {
          return Pb.name() + ": " + Cmd.str(Prog) + " on " + Pb.factText(F);
        };
        if (!std::binary_search(Affected.begin(), Affected.end(), F)) {
          ASSERT_EQ(Out, std::vector<FactId>{F}) << Where();
        }
        std::set<FactId> Lhs, Rhs(Out.begin(), Out.end());
        for (const IfdsAnalysis::Rel &R : FromId)
          if (auto O = IfdsAnalysis::applyRel(Ctx, R, ifds::IfdsFact::of(F)))
            Lhs.insert(O->Id);
        ASSERT_EQ(Lhs, Rhs) << Where();
      }
    }
  }
}

TEST(KillGenTest, FootprintIsExact) {
  std::vector<std::unique_ptr<Program>> Progs;
  Progs.push_back(parseProgram(R"(
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
  )"));
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Progs.push_back(generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)));
  for (const NamedWorkload &W : benchmarkWorkloads())
    if (W.Name == "jpat-p" || W.Name == "elevator")
      Progs.push_back(generateWorkload(W.Config));
  for (const std::unique_ptr<Program> &Prog : Progs) {
    expectFootprintExact(ifds::TaintProblem(
        *Prog, taintSourceClasses(*Prog), taintSinkMethods(*Prog)));
    expectFootprintExact(ifds::NullDerefProblem(*Prog));
    expectFootprintExact(ifds::ReachingDefsProblem(*Prog));
  }
}

TEST(KillGenTest, DirectLeak) {
  auto Prog = parseProgram(R"(
    typestate File { start s; error e; s -open-> s; }
    proc main() {
      v = new File;
      v.open();
    }
  )");
  EXPECT_EQ(runAllModes("taint", *Prog).Reports.size(), 1u);
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
  DomainRunResult R = runAllModes("taint", *Prog);
  ASSERT_EQ(R.Reports.size(), 1u);
  EXPECT_EQ(R.Reports.begin()->first,
            Prog->procId(Prog->symbols().intern("use")));
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
  DomainRunResult R = runAllModes("taint", *Prog);
  ASSERT_EQ(R.Reports.size(), 1u);
  EXPECT_EQ(R.Reports.begin()->first, Prog->mainProc());
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
  EXPECT_TRUE(runAllModes("taint", *Prog).Reports.empty());
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
  EXPECT_EQ(runAllModes("taint", *Prog).Reports.size(), 1u);
}

/// Kill/gen (Kg) coincidence on small fuzzed programs, shaped unlike
/// ClientCampaign.Taint's: SWIFT at (k, theta) in {(1,1), (2,1), (2,4)}
/// and BU report the TD leak sites.
class KgCoincidenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KgCoincidenceTest, SwiftAndBuAgreeWithTd) {
  FuzzConfig FC;
  FC.Seed = GetParam() * 31 + 5;
  FC.NumProcs = 3 + GetParam() % 3;
  FC.StmtsPerProc = 6 + GetParam() % 5;
  FC.NumVars = 3;
  std::unique_ptr<Program> Prog = generateFuzzProgram(FC);

  RunLimits L;
  L.MaxSteps = 5'000'000;
  L.MaxSeconds = 20;
  DomainRunResult Td =
      runClientDomain("taint", *Prog, DomainMode::Td, 1, 1, 1, L);
  ASSERT_FALSE(Td.Timeout);

  for (auto [K, Theta] :
       {std::pair<uint64_t, uint64_t>{1, 1}, {2, 1}, {2, 4}}) {
    DomainRunResult Sw =
        runClientDomain("taint", *Prog, DomainMode::Swift, K, Theta, 1, L);
    ASSERT_FALSE(Sw.Timeout);
    EXPECT_EQ(Sw.Reports, Td.Reports)
        << "seed=" << FC.Seed << " k=" << K << " theta=" << Theta;
  }

  DomainRunResult Bu =
      runClientDomain("taint", *Prog, DomainMode::Bu, 1, 1, 1, L);
  if (!Bu.Timeout) {
    EXPECT_EQ(Bu.Reports, Td.Reports) << "seed=" << FC.Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KgCoincidenceTest,
                         ::testing::Range<uint64_t>(1, 31));

//===----------------------------------------------------------------------===//
// Recorded taint verdicts
//===----------------------------------------------------------------------===//

/// One line of tests/corpus/taint_leaks.txt: "<name> <leaks> <hash>".
/// The hash folds the leak sites sorted by (procedure name, node).
std::string taintLine(const std::string &Name, const Program &Prog,
                      const std::set<std::pair<ProcId, NodeId>> &Leaks) {
  std::vector<std::pair<std::string, NodeId>> Sites;
  for (const auto &[P, N] : Leaks)
    Sites.emplace_back(Prog.symbols().text(Prog.proc(P).name()), N);
  std::sort(Sites.begin(), Sites.end());
  uint64_t H = 0x7a147;
  for (const auto &[Proc, N] : Sites) {
    H = hashCombine(H, crc32(Proc.data(), Proc.size()));
    H = hashCombine(H, N);
  }
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s %zu %016" PRIx64, Name.c_str(),
                Sites.size(), H);
  return Buf;
}

/// Expects the taint client in TD, SWIFT (k1/theta2, k5/theta4) and BU to
/// report the recorded leak sites of \p Prog.
void expectTaintRecorded(const std::string &Name, const Program &Prog) {
  struct ModeCase {
    DomainMode Mode;
    uint64_t K, Theta;
    const char *Label;
  };
  for (const ModeCase &C : {ModeCase{DomainMode::Td, 1, 1, "td"},
                            ModeCase{DomainMode::Swift, 1, 2, "swift k1/th2"},
                            ModeCase{DomainMode::Swift, 5, 4, "swift k5/th4"},
                            ModeCase{DomainMode::Bu, 1, 1, "bu"}}) {
    DomainRunResult R = runClientDomain("taint", Prog, C.Mode, C.K, C.Theta, 1);
    EXPECT_FALSE(R.Timeout) << Name << " " << C.Label;
    digests::expectRecorded("taint_leaks.txt", taintLine(Name, Prog, R.Reports),
                            std::string("taint leaks (") + C.Label + ")");
  }
}

TEST(TaintDigest, Table1ConfigsMatchRecorded) {
  for (const NamedWorkload &W : benchmarkWorkloads())
    expectTaintRecorded("table1:" + W.Name, *generateWorkload(W.Config));
}

TEST(TaintDigest, FuzzSeedsMatchRecorded) {
  for (uint64_t Seed = 0; Seed != 200; ++Seed)
    expectTaintRecorded(
        "fuzz:" + std::to_string(Seed),
        *generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)));
}

//===----------------------------------------------------------------------===//
// Recorded witness digests
//===----------------------------------------------------------------------===//

/// One line of tests/corpus/witness_digests.txt:
/// "<domain>:<program> <completed> <exits> <reporting> <events> <facts>
/// <hash>" over the difftest oracle's eight witness schedules from
/// \p InterpSeed (seeds InterpSeed + i, 20,000 steps, loop appetites
/// alternating 300 and 700 per mille). It counts the schedules that
/// completed, that reached main's exit with valid exit facts, and that
/// reported; sizes the union of their events and of their valid exit
/// facts; and hashes every schedule's two flags, events and exit facts.
std::string witnessLine(const std::string &Domain, const std::string &Name,
                        const Program &Prog, uint64_t InterpSeed) {
  unsigned Completed = 0, Exits = 0, Reporting = 0;
  std::set<Point> Events;
  std::set<std::string> Facts;
  uint64_t H = 0x3177e55;
  for (unsigned I = 0; I != 8; ++I) {
    InterpConfig C;
    C.Seed = InterpSeed + I;
    C.MaxSteps = 20'000;
    C.LoopContinuePerMille = I % 2 ? 700 : 300;
    WitnessResult W = runClientWitness(Domain, Prog, C);
    Completed += W.Completed;
    Exits += W.ExitFactsValid;
    Reporting += !W.Events.empty();
    H = hashCombine(H, W.Completed * 2 + W.ExitFactsValid);
    H = hashCombine(H, W.Events.size());
    for (const auto &[P, N] : W.Events)
      H = hashCombine(hashCombine(H, P), N);
    H = hashCombine(H, W.ExitFacts.size());
    for (const std::string &F : W.ExitFacts)
      H = hashCombine(H, crc32(F.data(), F.size()));
    Events.insert(W.Events.begin(), W.Events.end());
    if (W.ExitFactsValid)
      Facts.insert(W.ExitFacts.begin(), W.ExitFacts.end());
  }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s:%s %u %u %u %zu %zu %016" PRIx64,
                Domain.c_str(), Name.c_str(), Completed, Exits, Reporting,
                Events.size(), Facts.size(), H);
  return Buf;
}

/// Expects every domain's witness on \p Prog to give its recorded line.
void expectWitnessRecorded(const std::string &Name, const Program &Prog,
                           uint64_t InterpSeed) {
  std::vector<std::string> Domains{"typestate"};
  Domains.insert(Domains.end(), clientDomainNames().begin(),
                 clientDomainNames().end());
  for (const std::string &D : Domains)
    digests::expectRecorded("witness_digests.txt",
                            witnessLine(D, Name, Prog, InterpSeed),
                            "witness digest");
}

TEST(WitnessDigest, FuzzSeedsMatchRecorded) {
  // The campaign's schedule seed for fuzz seed s (difftest::runCampaign).
  for (uint64_t Seed = 1; Seed <= 300; ++Seed)
    expectWitnessRecorded(
        "fuzz:" + std::to_string(Seed),
        *generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)),
        Seed * 1013 + 1);
}

TEST(WitnessDigest, Table1ConfigsMatchRecorded) {
  for (const NamedWorkload &W : benchmarkWorkloads())
    expectWitnessRecorded("table1:" + W.Name, *generateWorkload(W.Config), 1);
}

TEST(WitnessDigest, CorpusProgramsMatchRecorded) {
  // Schedules seeded as swift-difftest --replay seeds them.
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const char *Dir : {"", "clients"})
    for (const fs::directory_entry &E :
         fs::directory_iterator(fs::path(SWIFT_CORPUS_DIR) / Dir))
      if (E.path().extension() == ".swiftir")
        Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_EQ(Files.size(), 7u);
  for (const fs::path &F : Files) {
    std::ifstream IS(F);
    std::stringstream Buf;
    Buf << IS.rdbuf();
    std::string Name =
        F.lexically_relative(SWIFT_CORPUS_DIR).replace_extension().string();
    expectWitnessRecorded("corpus:" + Name, *parseProgramText(Buf.str()), 1);
  }
}

//===----------------------------------------------------------------------===//
// Sharded-BU wavefront smoke: worker count is invisible
//===----------------------------------------------------------------------===//

TEST(ClientSharding, WorkerCountNeverChangesResults) {
  // The same in-process SCC-DAG wavefront that backs the shard tooling
  // runs under Swift and Bu modes; every observable — reports, exit
  // facts, summary and relation counts — must be identical at any width.
  for (uint64_t Seed : {3u, 7u, 11u}) {
    auto Prog = generateFuzzProgram(difftest::fuzzConfigForSeed(Seed));
    ASSERT_NE(Prog, nullptr);
    for (const std::string &Domain : clientDomainNames()) {
      for (DomainMode Mode : {DomainMode::Swift, DomainMode::Bu}) {
        DomainRunResult Base =
            runClientDomain(Domain, *Prog, Mode, 1, 2, 1);
        ASSERT_FALSE(Base.Timeout) << Domain << " seed " << Seed;
        for (unsigned Threads : {2u, 4u}) {
          DomainRunResult R =
              runClientDomain(Domain, *Prog, Mode, 1, 2, Threads);
          EXPECT_EQ(R.Reports, Base.Reports)
              << Domain << " seed " << Seed << " th" << Threads;
          EXPECT_EQ(R.ExitFacts, Base.ExitFacts)
              << Domain << " seed " << Seed << " th" << Threads;
          EXPECT_EQ(R.BuRelations, Base.BuRelations)
              << Domain << " seed " << Seed << " th" << Threads;
          EXPECT_EQ(R.TdSummaries, Base.TdSummaries)
              << Domain << " seed " << Seed << " th" << Threads;
        }
      }
    }
  }
}

} // namespace
