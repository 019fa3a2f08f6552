//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the Andersen-style points-to analysis: direct flows,
/// field-sensitive heap flows, interprocedural parameter/return flows,
/// and the may-alias oracle semantics the typestate analysis relies on.
///
/// The digest tests pin every points-to set the public interface exposes
/// on the 12 Table 1 configurations and fuzz seeds 0..199 against
/// tests/corpus/alias_digests.txt (re-recording: tests/RecordedDigests.h).
///
//===----------------------------------------------------------------------===//

#include "RecordedDigests.h"
#include "alias/AliasAnalysis.h"
#include "difftest/Difftest.h"
#include "genprog/Generator.h"
#include "genprog/Workloads.h"
#include "lang/Lower.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

using namespace swift;

namespace {

struct Probe {
  std::unique_ptr<Program> P;
  std::unique_ptr<AliasAnalysis> A;

  explicit Probe(const char *Src) : P(parseProgram(Src)) {
    A = std::make_unique<AliasAnalysis>(*P);
  }

  bool pts(const char *Proc, const char *Var, SiteId H) const {
    ProcId Pid = P->procId(P->symbols().intern(Proc));
    return A->mayPointTo(Pid, P->symbols().intern(Var), H);
  }
};

TEST(AliasTest, CopiesAndAllocs) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() {
      a = new C;   // h0
      b = a;
      c = new C;   // h1
      b = c;
    }
  )");
  EXPECT_TRUE(T.pts("main", "a", 0));
  EXPECT_FALSE(T.pts("main", "a", 1));
  // Flow-insensitive: b accumulates both.
  EXPECT_TRUE(T.pts("main", "b", 0));
  EXPECT_TRUE(T.pts("main", "b", 1));
  EXPECT_FALSE(T.pts("main", "c", 0));
}

TEST(AliasTest, FieldSensitivity) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() {
      box1 = new C;  // h0
      box2 = new C;  // h1
      x = new C;     // h2
      y = new C;     // h3
      box1.f = x;
      box2.f = y;
      box1.g = y;
      fx = box1.f;
      gx = box1.g;
      fy = box2.f;
    }
  )");
  EXPECT_TRUE(T.pts("main", "fx", 2));
  EXPECT_FALSE(T.pts("main", "fx", 3)); // distinct base objects
  EXPECT_TRUE(T.pts("main", "gx", 3));  // distinct fields
  EXPECT_FALSE(T.pts("main", "gx", 2));
  EXPECT_TRUE(T.pts("main", "fy", 3));
}

TEST(AliasTest, FieldMergesThroughAliasedBases) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() {
      box = new C;   // h0
      alias = box;
      x = new C;     // h1
      alias.f = x;
      out = box.f;   // reads through the alias
    }
  )");
  EXPECT_TRUE(T.pts("main", "out", 1));
}

TEST(AliasTest, InterproceduralFlows) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc id(p) { return p; }
    proc stash(q) { cell = new C; cell.f = q; return cell; }
    proc main() {
      a = new C;         // h1 (sites number in declaration order; the
      b = id(a);         //     cell inside stash is h0)
      c = stash(a);
      d = c.f;
    }
  )");
  EXPECT_TRUE(T.pts("id", "p", 1));
  EXPECT_TRUE(T.pts("main", "b", 1));
  EXPECT_TRUE(T.pts("main", "c", 0));
  EXPECT_TRUE(T.pts("main", "d", 1)); // a flowed through the heap cell
  EXPECT_FALSE(T.pts("main", "d", 0));
}

TEST(AliasTest, ContextInsensitivityMergesCallers) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc id(p) { return p; }
    proc main() {
      a = new C;  // h0
      b = new C;  // h1
      x = id(a);
      y = id(b);
    }
  )");
  // One summary for id: both callers' sites merge into both results.
  EXPECT_TRUE(T.pts("main", "x", 0));
  EXPECT_TRUE(T.pts("main", "x", 1));
  EXPECT_TRUE(T.pts("main", "y", 0));
  EXPECT_TRUE(T.pts("main", "y", 1));
}

TEST(AliasTest, UnknownVariablesPointNowhere) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() { a = new C; }
  )");
  EXPECT_FALSE(T.pts("main", "neverseen", 0));
  EXPECT_EQ(T.A->pointsTo(T.P->mainProc(),
                          T.P->symbols().intern("neverseen"))
                .size(),
            0u);
}

TEST(AliasTest, NullAssignDoesNotAddTargets) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() {
      a = new C;
      a = null;
      b = a;
    }
  )");
  // Flow-insensitive: a still may point to h0 (the analysis is a may
  // analysis), but null itself contributes nothing.
  EXPECT_TRUE(T.pts("main", "a", 0));
  EXPECT_TRUE(T.pts("main", "b", 0));
  EXPECT_GT(T.A->totalPtsSize(), 0u);
}

TEST(AliasTest, CopyCycleSharesOneSet) {
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() {
      a = new C;   // h0
      b = new C;   // h1
      a = b;
      b = a;
      c = b;
    }
  )");
  for (const char *V : {"a", "b", "c"}) {
    EXPECT_TRUE(T.pts("main", V, 0)) << V;
    EXPECT_TRUE(T.pts("main", V, 1)) << V;
  }
  EXPECT_EQ(T.A->pointsTo(T.P->mainProc(), T.P->symbols().intern("c"))
                .size(),
            2u);
}

TEST(AliasTest, LoadAndStoreRegisteredAfterTheirBaseGrew) {
  // By the time fill's store and read's load are registered, their bases'
  // sets already hold h0: from a's allocation and the copy and call
  // edges registered before them.
  Probe T(R"(
    typestate C { start s; error e; }
    proc main() {
      a = new C;     // h0
      b = a;
      x = new C;     // h1
      fill(b, x);
      y = read(a);
    }
    proc fill(p, v) { p.f = v; }
    proc read(q) { r = q.f; return r; }
  )");
  EXPECT_TRUE(T.pts("fill", "p", 0));
  EXPECT_TRUE(T.pts("read", "r", 1));
  EXPECT_TRUE(T.pts("main", "y", 1));
  EXPECT_FALSE(T.pts("main", "y", 0));
  EXPECT_EQ(T.A->fieldPointsTo(0, T.P->symbols().intern("f")).size(), 1u);
}

TEST(AliasTest, StoreCreatesFieldNodesWhilePropagating) {
  // p learns its 64 sites only by propagation through id's parameter and
  // return, so each field node of the store p.f = x is created mid-solve,
  // growing the node tables while the store is being materialized.
  std::string Src = "typestate C { start s; error e; }\n"
                    "proc id(q) { return q; }\n"
                    "proc main() {\n  x = new C;\n"; // h0
  for (int I = 0; I != 64; ++I)
    Src += "  b = new C;\n"; // h1..h64
  Src += "  p = id(b);\n  p.f = x;\n}\n";
  Probe T(Src.c_str());
  Symbol F = T.P->symbols().intern("f");
  for (SiteId H = 1; H <= 64; ++H) {
    const auto &Pts = T.A->fieldPointsTo(H, F);
    ASSERT_EQ(Pts.size(), 1u) << "site " << H;
    EXPECT_EQ(*Pts.begin(), 0u) << "site " << H;
  }
  EXPECT_TRUE(T.A->fieldPointsTo(0, F).empty());
  const auto &P = T.A->pointsTo(T.P->mainProc(), T.P->symbols().intern("p"));
  EXPECT_EQ(P.size(), 64u);
  EXPECT_TRUE(std::is_sorted(P.begin(), P.end()));
}

//===----------------------------------------------------------------------===//
// Recorded digests
//===----------------------------------------------------------------------===//

/// One digest line: "<name> <sets> <sites> <hash>". It covers
/// pointsTo(P, v) for every variable in vars() order and then $ret,
/// procedure by procedure, then fieldPointsTo(h, f) for every site h and
/// every field f that some load or store names (ascending symbol id):
/// every node the analysis can create. \c sets counts
/// the non-empty sets and \c sites their total size; the hash folds each
/// set's size and its sites in iteration order, so it also pins the
/// ascending order the serve fingerprints rely on.
std::string digestLine(const std::string &Name, const Program &Prog) {
  AliasAnalysis A(Prog);
  uint64_t H = 0xa11a5d16;
  size_t Sets = 0, Sites = 0;
  auto Fold = [&](const auto &Pts) {
    H = hashCombine(H, Pts.size());
    for (SiteId S : Pts)
      H = hashCombine(H, S);
    Sets += !Pts.empty();
    Sites += Pts.size();
  };
  std::vector<Symbol> Fields;
  for (ProcId P = 0; P != Prog.numProcs(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    for (Symbol V : Proc.vars())
      Fold(A.pointsTo(P, V));
    Fold(A.pointsTo(P, Prog.retVar()));
    for (const CfgNode &N : Proc.nodes())
      if (N.Cmd.Kind == CmdKind::Load || N.Cmd.Kind == CmdKind::Store)
        Fields.push_back(N.Cmd.Field);
  }
  std::sort(Fields.begin(), Fields.end());
  Fields.erase(std::unique(Fields.begin(), Fields.end()), Fields.end());
  for (SiteId S = 0; S != Prog.numSites(); ++S)
    for (Symbol F : Fields)
      Fold(A.fieldPointsTo(S, F));
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s %zu %zu %016" PRIx64, Name.c_str(),
                Sets, Sites, H);
  return Buf;
}

void expectRecorded(const std::string &Name, const Program &Prog) {
  digests::expectRecorded("alias_digests.txt", digestLine(Name, Prog),
                          "points-to digest");
}

TEST(AliasDigest, Table1ConfigsMatchRecorded) {
  for (const NamedWorkload &W : benchmarkWorkloads())
    expectRecorded("table1:" + W.Name, *generateWorkload(W.Config));
}

TEST(AliasDigest, FuzzSeedsMatchRecorded) {
  for (uint64_t Seed = 0; Seed != 200; ++Seed)
    expectRecorded("fuzz:" + std::to_string(Seed),
                   *generateFuzzProgram(difftest::fuzzConfigForSeed(Seed)));
}

} // namespace
