//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the concrete interpreter: typestate transitions and
/// error recording, heap fields, call/return and recursion bounds,
/// null-dereference termination, schedule determinism, and the
/// domain-neutral observables the taint, null-deref and reaching-defs
/// witnesses read (calls with their receiver sites, the explicit-null
/// dereference, stores, main's direct definitions, main's exit).
///
//===----------------------------------------------------------------------===//

#include "concrete/Interpreter.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace swift;

namespace {

InterpResult run(const char *Src, uint64_t Seed = 1) {
  std::unique_ptr<Program> P = parseProgram(Src);
  InterpConfig C;
  C.Seed = Seed;
  return interpret(*P, C);
}

TEST(InterpTest, ProtocolViolationIsRecorded) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc main() {
      a = new File;
      a.open();
      a.open();
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ErrorSites.size(), 1u);
  EXPECT_TRUE(R.ErrorSites.count(0));
}

TEST(InterpTest, CorrectUsageIsClean) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc main() {
      a = new File;
      a.open();
      a.close();
      a.open();
      a.close();
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_TRUE(R.ErrorSites.empty());
  EXPECT_EQ(R.ObjectsAllocated, 1u);
}

TEST(InterpTest, ErrorIsAbsorbingAndForeignMethodsIgnored) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc main() {
      a = new File;
      a.open();
      a.open();
      a.close();     // already in error; no further transition
      a.whatever();  // foreign method: no effect
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ErrorSites.size(), 1u);
}

TEST(InterpTest, HeapFieldsStoreReferences) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    typestate Box { start b; error be; }
    proc main() {
      f = new File;
      box = new Box;
      box.slot = f;
      g = box.slot;
      g.open();
      f.open();     // same object: double open through the alias
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ErrorSites.size(), 1u);
  EXPECT_TRUE(R.ErrorSites.count(0));
}

TEST(InterpTest, NullDereferenceTerminatesRun) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc main() {
      a = null;
      a.open();      // halts here, like an uncaught NPE
      b = new File;
      b.open();
      b.open();      // never reached
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_TRUE(R.ErrorSites.empty());
  EXPECT_EQ(R.ObjectsAllocated, 0u);
}

TEST(InterpTest, CallsPassReferencesAndReturnValues) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc openIt(x) { x.open(); return x; }
    proc main() {
      a = new File;
      b = openIt(a);
      b.open();      // same object: error
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ErrorSites.size(), 1u);
}

TEST(InterpTest, MissingReturnYieldsNull) {
  InterpResult R = run(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc nothing() { x = new File; }
    proc main() {
      a = nothing();
      a.open();      // a is null: run halts cleanly
    }
  )");
  EXPECT_TRUE(R.Completed);
  EXPECT_TRUE(R.ErrorSites.empty());
  EXPECT_EQ(R.ObjectsAllocated, 1u);
}

TEST(InterpTest, UnboundedRecursionHitsDepthBound) {
  std::unique_ptr<Program> P = parseProgram(R"(
    typestate File { start c; error e; }
    proc loop() { loop(); }
    proc main() { loop(); }
  )");
  InterpConfig C;
  C.Seed = 1;
  C.MaxDepth = 16;
  InterpResult R = interpret(*P, C);
  EXPECT_FALSE(R.Completed);
}

TEST(InterpTest, SchedulesAreDeterministicPerSeed) {
  const char *Src = R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc main() {
      a = new File;
      while (*) {
        if (*) { a.open(); } else { a.close(); }
      }
    }
  )";
  for (uint64_t Seed : {1u, 2u, 3u}) {
    InterpResult R1 = run(Src, Seed);
    InterpResult R2 = run(Src, Seed);
    EXPECT_EQ(R1.ErrorSites, R2.ErrorSites);
    EXPECT_EQ(R1.Steps, R2.Steps);
  }
  // Some schedule of the nondeterministic open/close dance must error.
  bool AnyError = false;
  for (uint64_t Seed = 1; Seed <= 50 && !AnyError; ++Seed)
    AnyError = !run(Src, Seed).ErrorSites.empty();
  EXPECT_TRUE(AnyError);
}

//===----------------------------------------------------------------------===//
// Domain-neutral observables
//===----------------------------------------------------------------------===//

/// A program and one schedule of it.
struct Ran {
  std::unique_ptr<Program> P;
  InterpResult R;

  explicit Ran(const std::string &Src)
      : P(parseProgram(Src)), R(interpret(*P, InterpConfig{})) {}

  /// (proc, node) of the \p Nth command of kind \p K in procedure \p Name.
  std::pair<ProcId, NodeId> at(const char *Name, CmdKind K,
                               unsigned Nth = 0) const {
    for (ProcId Id = 0; Id != P->numProcs(); ++Id) {
      const Procedure &Proc = P->proc(Id);
      if (P->symbols().text(Proc.name()) != Name)
        continue;
      for (const CfgNode &N : Proc.nodes())
        if (N.Cmd.Kind == K && Nth-- == 0)
          return {Id, N.Cmd.Self};
    }
    ADD_FAILURE() << "no such command in " << Name;
    return {InvalidProc, InvalidNode};
  }
};

TEST(InterpObservables, ExplicitNullDerefIsRecordedUninitializedIsSilent) {
  // The provenance bit survives copies and a field round trip.
  Ran Explicit(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    typestate Box { start b; error be; }
    proc main() {
      box = new Box;
      x = null;
      box.slot = x;
      y = box.slot;
      z = y;
      z.open();
    }
  )");
  EXPECT_TRUE(Explicit.R.Completed);
  EXPECT_FALSE(Explicit.R.ReachedMainExit);
  EXPECT_EQ(Explicit.R.NullDeref, Explicit.at("main", CmdKind::TsCall));

  // Never-assigned variables and fields halt the run just the same.
  Ran Uninit(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    typestate Box { start b; error be; }
    proc main() {
      box = new Box;
      y = box.slot;
      y.open();
    }
  )");
  EXPECT_TRUE(Uninit.R.Completed);
  EXPECT_FALSE(Uninit.R.ReachedMainExit);
  EXPECT_FALSE(Uninit.R.NullDeref.has_value());
  EXPECT_TRUE(Uninit.R.Calls.empty());
}

TEST(InterpObservables, StoreOnNullBaseHaltsAndIsNotRecorded) {
  Ran X(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc main() {
      a = new File;
      b = new File;
      a.f = b;
      c = null;
      c.f = b;       // halts here
      b.f = a;       // never reached
    }
  )");
  EXPECT_TRUE(X.R.Completed);
  EXPECT_FALSE(X.R.ReachedMainExit);
  EXPECT_EQ(X.R.Stores, (std::set<std::pair<ProcId, NodeId>>{
                            X.at("main", CmdKind::Store, 0)}));
  EXPECT_EQ(X.R.NullDeref, X.at("main", CmdKind::Store, 1));
}

TEST(InterpObservables, CallResultUntracksTheCallersDefinition) {
  Ran X(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc id(p) { q = p; return q; }
    proc main() {
      a = new File;
      b = a;
      b = id(a);
      n = null;
    }
  )");
  ASSERT_TRUE(X.R.ReachedMainExit);
  Symbol A = X.P->symbols().intern("a");
  Symbol N = X.P->symbols().intern("n");
  // b's copy is untracked by the call, and the callee's q never shows;
  // lowering ends main with $ret = null.
  EXPECT_EQ(X.R.MainDefs,
            (std::map<Symbol, NodeId>{
                {A, X.at("main", CmdKind::Alloc).second},
                {N, X.at("main", CmdKind::AssignNull, 0).second},
                {X.P->retVar(), X.at("main", CmdKind::AssignNull, 1).second}}));
}

TEST(InterpObservables, RecordedCallsCarryTheReceiverSite) {
  Ran X(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc use(f) { f.whatever(); }
    proc main() {
      a = new File;
      b = new File;
      b.open();
      use(a);
    }
  )");
  ASSERT_TRUE(X.R.ReachedMainExit);
  auto [Main, Open] = X.at("main", CmdKind::TsCall);
  auto [Use, Whatever] = X.at("use", CmdKind::TsCall);
  // Calls of methods the class does not declare are recorded too.
  EXPECT_EQ(X.R.Calls, (std::set<std::tuple<ProcId, NodeId, SiteId>>{
                           {Main, Open, 1}, {Use, Whatever, 0}}));
}

TEST(InterpObservables, MainExitIsNotReachedAfterAHalt) {
  const char *Header = R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc f(p) { p.open(); }
  )";
  Ran Clean(std::string(Header) + "proc main() { a = new File; f(a); }");
  EXPECT_TRUE(Clean.R.Completed);
  EXPECT_TRUE(Clean.R.ReachedMainExit);
  // A halt in a callee ends the run: main's frame never resumes.
  Ran Halted(std::string(Header) + "proc main() { f(x); a = new File; }");
  EXPECT_TRUE(Halted.R.Completed);
  EXPECT_FALSE(Halted.R.ReachedMainExit);
  EXPECT_EQ(Halted.R.ObjectsAllocated, 0u);
}

} // namespace
