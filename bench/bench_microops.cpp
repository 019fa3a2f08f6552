//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the relation-domain operators the
/// paper's cost model rests on: trans, rtrans, rcomp, wp, predicate
/// evaluation, the call mappings, and the whole-run building blocks
/// (alias analysis, tabulation on a small workload).
///
//===----------------------------------------------------------------------===//

#include "genprog/Generator.h"
#include "genprog/Workloads.h"
#include "obs/BenchResult.h"
#include "support/CliParse.h"
#include "typestate/Relation.h"
#include "typestate/Runner.h"
#include "typestate/Transfer.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace swift;

namespace {

/// Shared fixture: the jpat-p workload plus a representative state and
/// relations.
struct Fixture {
  Fixture() {
    const NamedWorkload *W = findWorkload("jpat-p");
    Prog = generateWorkload(W->Config);
    Ctx = std::make_unique<TsContext>(*Prog, Prog->symbols().intern("File"));

    // A worker procedure with a typestate call and a representative
    // incoming state.
    for (ProcId P = 0; P != Prog->numProcs() && Proc == InvalidProc; ++P)
      for (const CfgNode &Node : Prog->proc(P).nodes())
        if (Node.Cmd.Kind == CmdKind::TsCall) {
          Proc = P;
          TsCallCmd = &Node.Cmd;
          break;
        }

    ApSet Must, MustNot;
    Must.insert(AccessPath(TsCallCmd->Src));
    State = TsAbstractState(0, Ctx->spec().initState(), std::move(Must),
                            std::move(MustNot));

    Prims = tsPrimRels(*Ctx, Proc, *TsCallCmd);
  }

  std::unique_ptr<Program> Prog;
  std::unique_ptr<TsContext> Ctx;
  ProcId Proc = InvalidProc;
  const Command *TsCallCmd = nullptr;
  TsAbstractState State;
  std::vector<TsRelation> Prims;
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

void BM_Trans_TsCall(benchmark::State &S) {
  Fixture &F = fixture();
  for (auto _ : S) {
    auto Out = tsTransfer(*F.Ctx, F.Proc, *F.TsCallCmd, F.State);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_Trans_TsCall);

void BM_Rtrans_TsCall(benchmark::State &S) {
  Fixture &F = fixture();
  TsRelation Id = TsRelation::makeIdentity(F.Ctx->spec().numStates());
  for (auto _ : S) {
    auto Out = tsRtrans(*F.Ctx, F.Proc, *F.TsCallCmd, Id);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_Rtrans_TsCall);

void BM_Rcomp(benchmark::State &S) {
  Fixture &F = fixture();
  const TsRelation &A = F.Prims[0];
  const TsRelation &B = F.Prims.back();
  for (auto _ : S) {
    auto Out = tsRcomp(*F.Ctx, A, B);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_Rcomp);

void BM_WpPred(benchmark::State &S) {
  Fixture &F = fixture();
  const TsRelation &A = F.Prims[0];
  const TsPred &Post = F.Prims.back().phi();
  for (auto _ : S) {
    auto Out = tsWpPred(A, Post);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_WpPred);

void BM_PredSatisfiedBy(benchmark::State &S) {
  Fixture &F = fixture();
  const TsPred &Phi = F.Prims[0].phi();
  for (auto _ : S) {
    bool Out = Phi.satisfiedBy(*F.Ctx, F.State);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_PredSatisfiedBy);

void BM_RelationApply(benchmark::State &S) {
  Fixture &F = fixture();
  const TsRelation &A = F.Prims[0];
  for (auto _ : S) {
    auto Out = A.apply(*F.Ctx, F.State);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_RelationApply);

void BM_AliasAnalysis_Midsize(benchmark::State &S) {
  const NamedWorkload *W = findWorkload("toba-s");
  std::unique_ptr<Program> Prog = generateWorkload(W->Config);
  for (auto _ : S) {
    AliasAnalysis A(*Prog);
    benchmark::DoNotOptimize(A.totalPtsSize());
  }
}
BENCHMARK(BM_AliasAnalysis_Midsize);

void BM_AliasAnalysis_Large(benchmark::State &S) {
  const NamedWorkload *W = findWorkload("avrora");
  std::unique_ptr<Program> Prog = generateWorkload(W->Config);
  for (auto _ : S) {
    AliasAnalysis A(*Prog);
    benchmark::DoNotOptimize(A.totalPtsSize());
  }
}
BENCHMARK(BM_AliasAnalysis_Large);

void BM_GenerateWorkload_Midsize(benchmark::State &S) {
  const NamedWorkload *W = findWorkload("toba-s");
  for (auto _ : S) {
    auto Prog = generateWorkload(W->Config);
    benchmark::DoNotOptimize(Prog->numCommands());
  }
}
BENCHMARK(BM_GenerateWorkload_Midsize);

void BM_SwiftEndToEnd_Small(benchmark::State &S) {
  Fixture &F = fixture();
  for (auto _ : S) {
    TsRunResult R = runTypestateSwift(*F.Ctx, 5, 2);
    benchmark::DoNotOptimize(R.TdSummaries);
  }
}
BENCHMARK(BM_SwiftEndToEnd_Small);

void BM_TopDownEndToEnd_Small(benchmark::State &S) {
  Fixture &F = fixture();
  for (auto _ : S) {
    TsRunResult R = runTypestateTd(*F.Ctx);
    benchmark::DoNotOptimize(R.TdSummaries);
  }
}
BENCHMARK(BM_TopDownEndToEnd_Small);

/// Console output as usual, plus a swift-bench v1 row per finished
/// benchmark so --json-out feeds the same perf trajectory as the table
/// benches (config = benchmark name, per-iteration times in seconds).
class JsonCapturingReporter : public benchmark::ConsoleReporter {
public:
  explicit JsonCapturingReporter(obs::benchjson::Report &R) : R(R) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &Ru : Runs) {
      if (Ru.run_type != Run::RT_Iteration || Ru.error_occurred ||
          Ru.iterations == 0)
        continue;
      obs::benchjson::Row &Row = R.newRow("microop", Ru.benchmark_name());
      Row.set("seconds",
              Ru.real_accumulated_time / double(Ru.iterations));
      Row.set("cpu_seconds",
              Ru.cpu_accumulated_time / double(Ru.iterations));
    }
    ConsoleReporter::ReportRuns(Runs);
  }

private:
  obs::benchjson::Report &R;
};

} // namespace

// Hand-rolled BENCHMARK_MAIN: peels off our --json-out= flag, leaves
// every --benchmark_* flag to google-benchmark's parser (which rejects
// anything else), and runs with the row-capturing reporter.
int main(int Argc, char **Argv) {
  std::string JsonOut;
  std::vector<char *> Args;
  for (int I = 0; I != Argc; ++I) {
    std::string_view A = Argv[I];
    std::string_view V;
    if (cli::matchValueFlag(A, "--json-out=", V)) {
      if (V.empty()) {
        std::fprintf(stderr, "%s: --json-out needs a file path\n", Argv[0]);
        return 2;
      }
      JsonOut = V;
      continue;
    }
    Args.push_back(Argv[I]);
  }
  int Remaining = static_cast<int>(Args.size());
  benchmark::Initialize(&Remaining, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Remaining, Args.data()))
    return 1;

  obs::benchjson::Report R;
  R.Bench = "bench_microops";
  JsonCapturingReporter Reporter(R);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  if (!JsonOut.empty()) {
    std::string Err;
    if (R.Rows.empty()) {
      std::fprintf(stderr,
                   "error: no benchmark ran; refusing to write an empty "
                   "%s\n",
                   JsonOut.c_str());
      return 1;
    }
    if (!obs::benchjson::writeReport(R, JsonOut, &Err)) {
      std::fprintf(stderr, "error: bench result write failed: %s\n",
                   Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu rows)\n", JsonOut.c_str(),
                 R.Rows.size());
  }
  return 0;
}
