//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two batch workloads: governed SWIFT (k=5, theta=2) and pure BU over
/// fixed program sets, each program going parseProgramText -> TsContext ->
/// solve exactly as swift-analyze does. A pass runs every program of the
/// set once, always in the same order (the peak resident set depends on
/// the order); passes repeat until the run's time is up. The inputs are
/// the fixed Table 2 programs, so the seed only picks the relation-algebra
/// operand sample of a traced bu-batch run. Nothing is persisted.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Dumper.h"
#include "obs/Trace.h"
#include "typestate/Runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace swift;
using namespace swift::perfbench;

namespace {

/// Per-solve wall-clock cap: a solve this slow is a failed operation
/// (the run must end well inside its time limit either way).
constexpr double SolveTimeoutSeconds = 60;

/// swift-batch's relation-algebra operands come from the procedures whose
/// callee closure has at most this many procedures.
constexpr size_t RelOpsMaxClosure = 16;

struct Input {
  InputSpec Spec;
  std::string Text;
  const Expected *Ref = nullptr;
};

std::vector<Input> prepare(const std::vector<std::string> &Names,
                           const std::map<std::string, Expected> &E) {
  std::vector<Input> Ins;
  for (const std::string &N : Names) {
    auto It = E.find(N);
    if (It == E.end())
      throw std::runtime_error("no expected verdict for input '" + N + "'");
    InputSpec S = inputSpec(N);
    std::string Text = inputText(S);
    Ins.push_back({std::move(S), std::move(Text), &It->second});
  }
  return Ins;
}

/// Verdict check shared by both modes; empty on success.
std::string checkRun(const std::string &Name, const Program &Prog,
                     const TsRunResult &Run, const Expected &Ref) {
  if (Run.Timeout)
    return Name + ": did not finish (timeout or relation cap)";
  if (Run.ErrorSites != Ref.ErrorSites)
    return Name + ": " + std::to_string(Run.ErrorSites.size()) +
           " error sites, the TD reference has " +
           std::to_string(Ref.ErrorSites.size()) + " (or different ones)";
  std::string D = mainExitDigest(Prog, Run.MainExit);
  if (D != Ref.ExitDigest)
    return Name + ": main-exit digest " + D + " != reference " +
           Ref.ExitDigest;
  if (uint64_t Caps = Run.Stat.get("bu.rel_cap_hits"))
    return Name + ": bu.rel_cap_hits = " + std::to_string(Caps);
  return "";
}

std::string checkGoverned(const std::string &Name, const Program &Prog,
                          const TsGovernedResult &G,
                          const Expected &Ref) {
  if (G.Partial)
    return Name + ": governed run exhausted its budget";
  if (G.Peak != Pressure::Green)
    return Name + ": governed run left Green (" + pressureName(G.Peak) + ")";
  for (const auto &[K, V] : G.Run.Stat.all())
    if (K.rfind("gov.", 0) == 0 && V != 0)
      return Name + ": governor counter " + K + " = " + std::to_string(V);
  for (SiteId S = 0; S != Prog.numSites(); ++S) {
    TsVerdict Want = Ref.ErrorSites.count(S) ? TsVerdict::ErrorReported
                                             : TsVerdict::Proved;
    if (G.Verdicts[S] != Want)
      return Name + ": site " + std::to_string(S) + " verdict " +
             tsVerdictName(G.Verdicts[S]) + ", reference " +
             tsVerdictName(Want);
  }
  return checkRun(Name, Prog, G.Run, Ref);
}

/// Timings of one program in one pass.
struct Sample {
  double Parse = 0, Context = 0, Solve = 0, BuSeconds = 0;
  uint64_t SolveAllocs = 0;
  uint64_t GovPeakBytes = 0;
  Stats Stat;
  uint64_t Steps = 0, BuRelations = 0;
};

/// Runs one program once: parse, context, solve, check.
Sample runOne(const Input &In, bool Swift, Report &R) {
  Sample S;
  Clock::time_point T0 = Clock::now();
  std::unique_ptr<Program> Prog;
  {
    obs::TraceSpan Span("bench", "ir.parse");
    Prog = parseProgramText(In.Text);
  }
  S.Parse = secondsSince(T0);
  T0 = Clock::now();
  std::unique_ptr<TsContext> Ctx;
  {
    obs::TraceSpan Span("bench", "alias.context");
    Ctx = std::make_unique<TsContext>(
        *Prog, Prog->symbols().intern(trackedClass()));
  }
  S.Context = secondsSince(T0);
  uint64_t A0 = allocCount();
  T0 = Clock::now();
  std::string Err;
  if (Swift) {
    GovernedRunOptions GO;
    GO.Config.K = 5;
    GO.Config.Theta = 2;
    GO.Config.Threads = 1;
    GO.Limits.MaxSeconds = SolveTimeoutSeconds;
    TsGovernedResult G;
    {
      obs::TraceSpan Span("bench", "solve");
      G = runTypestateGoverned(*Ctx, GO);
    }
    S.Solve = secondsSince(T0);
    S.SolveAllocs = allocCount() - A0;
    S.GovPeakBytes = G.PeakMemoryBytes;
    S.BuSeconds = static_cast<double>(G.Run.Stat.get("swift.bu_time_us")) / 1e6;
    Err = checkGoverned(In.Spec.Name, *Prog, G, *In.Ref);
    S.Steps = G.Run.Steps;
    S.BuRelations = G.Run.BuRelations;
    S.Stat = std::move(G.Run.Stat);
  } else {
    RunLimits L;
    L.MaxSeconds = SolveTimeoutSeconds;
    TsRunResult Run;
    {
      obs::TraceSpan Span("bench", "solve");
      Run = runTypestateBu(*Ctx, L, /*Threads=*/1);
    }
    S.Solve = secondsSince(T0);
    S.SolveAllocs = allocCount() - A0;
    S.BuSeconds = S.Solve;
    Err = checkRun(In.Spec.Name, *Prog, Run, *In.Ref);
    S.Steps = Run.Steps;
    S.BuRelations = Run.BuRelations;
    S.Stat = std::move(Run.Stat);
  }
  R.op(Err);
  return S;
}

/// Per-pass totals over the program set.
struct Pass {
  double Setup = 0, Analyze = 0, Context = 0, BuSeconds = 0, TdSelf = 0;
  uint64_t SolveAllocs = 0, GovPeakBytes = 0, Steps = 0, BuRelations = 0;
  Stats Stat;
};

Pass runPass(const std::vector<Input> &Ins, bool Swift, Report &R) {
  Pass P;
  obs::TraceSpan Span("bench", "batch.pass");
  for (const Input &In : Ins) {
    Sample S = runOne(In, Swift, R);
    P.Context += S.Context;
    P.Setup += S.Parse + S.Context;
    P.Analyze += S.Solve;
    P.BuSeconds += S.BuSeconds;
    P.TdSelf += S.Solve - S.BuSeconds;
    P.SolveAllocs += S.SolveAllocs;
    P.GovPeakBytes = std::max(P.GovPeakBytes, S.GovPeakBytes);
    P.Steps += S.Steps;
    P.BuRelations += S.BuRelations;
    P.Stat.merge(S.Stat);
  }
  return P;
}

void runBatch(const Options &O, const std::map<std::string, Expected> &E,
              Report &R, bool Swift) {
  std::vector<Input> Ins = prepare(workloadInputs(O.Workload, O.Tiny), E);

  // Traced runs alternate untraced and traced passes, so the tracing
  // overhead is measured against passes of the same run.
  Samples Setup, Analyze, AnalyzeTraced, BuTime, TdSelf;
  std::vector<Pass> Passes;
  SpanTable Spans;
  StopRule Stop(O, /*MinIters=*/O.Trace ? 4 : 3, /*TinyIters=*/2);
  for (size_t N = 0; Stop.more(N); ++N) {
    bool Traced = O.Trace && N % 2 == 1;
    if (Traced)
      traceOn();
    Pass P = runPass(Ins, Swift, R);
    std::fprintf(stderr, "pass %zu%s: setup %.4f s, analyze %.4f s\n", N,
                 Traced ? " (traced)" : "", P.Setup, P.Analyze);
    if (Traced) {
      Spans.harvest();
      AnalyzeTraced.add(P.Analyze);
      BuTime.add(P.BuSeconds);
      TdSelf.add(P.TdSelf);
    } else {
      Setup.add(P.Setup);
      Analyze.add(P.Analyze);
    }
    Passes.push_back(std::move(P));
  }

  // Deterministic counters of the first pass (later passes repeat them;
  // the self-check compares them across whole runs).
  const Pass &First = Passes.front();
  R.counter("steps", First.Steps);
  R.counter("alloc.count", First.SolveAllocs);
  R.counter("bu.relations", First.BuRelations);
  for (const auto &[K, V] : First.Stat.all())
    if (K.rfind("td.", 0) == 0 || K.rfind("bu.", 0) == 0 ||
        K.rfind("budget.", 0) == 0 ||
        (K.rfind("swift.", 0) == 0 && K != "swift.bu_time_us"))
      R.counter(K, V);

  // Traffic claims, measured on every run.
  double CtxSum = 0, SetupSum = 0, BuSum = 0, AnalyzeSum = 0;
  for (const Pass &P : Passes) {
    CtxSum += P.Context;
    SetupSum += P.Setup;
    BuSum += P.BuSeconds;
    AnalyzeSum += P.Analyze;
  }
  double AliasShare = CtxSum / (SetupSum + AnalyzeSum);
  double BuShare = BuSum / AnalyzeSum;
  if (Swift) {
    R.claim("bu.share", BuShare, 0.05, 0.95,
            "the TD loop and the BU algebra both do real work");
    R.claim("alias.share", AliasShare, 0.05, 1.0,
            "alias set-up is a visible share of setup + solve time");
  } else {
    R.claim("td.steps", static_cast<double>(First.Stat.get("budget.td_steps")),
            0, 0, "the TD loop does no work");
    R.claim("alias.share", AliasShare, 0, 0.05,
            "relation algebra, not set-up, does almost all the work");
  }

  if (!O.Trace) {
    R.metric("setup_s", Setup.median(), "s", Setup.size());
    R.metric("verdict_ms", Analyze.median() * 1e3, "ms", Analyze.size());
    R.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    return;
  }

  // Per-layer metrics of the traced passes, per pass.
  double NT = static_cast<double>(AnalyzeTraced.size());
  double TracedAnalyze = AnalyzeTraced.median();
  R.metric("ir.parse_ms", Spans.self("ir.parse") / NT * 1e3, "ms",
           AnalyzeTraced.size());
  R.metric("alias.context_s", Spans.self("alias.context") / NT, "s",
           AnalyzeTraced.size());
  R.metric("obs.trace_overhead",
           Analyze.median() > 0 ? TracedAnalyze / Analyze.median() : 0,
           "ratio", AnalyzeTraced.size());
  // Time inside the solver's own bu.* spans; for pure BU the rest of the
  // solve is runTypestateBu's set-up and main-summary instantiation.
  double BuSeconds = Spans.selfWithPrefix("bu.") / NT;
  R.metric("bu.time_s", BuSeconds, "s", AnalyzeTraced.size());
  R.metric("bu.share", TracedAnalyze > 0 ? BuSeconds / TracedAnalyze : 0,
           "ratio", AnalyzeTraced.size());
  R.metric("bu.scc_solves", Spans.count("bu.scc") / NT, "count",
           AnalyzeTraced.size());
  R.metric("alloc.count", static_cast<double>(First.SolveAllocs), "count", 1);
  // Relation-algebra unit costs on this workload's own summaries: the
  // largest program of the BU set; for SWIFT, whose programs pure BU does
  // not finish in time, the bottom of the first program's call graph,
  // where SWIFT's BU triggers land.
  {
    const Input &In = Swift ? Ins.front() : Ins.back();
    std::unique_ptr<Program> Prog = parseProgramText(In.Text);
    measureRelationOps(*Prog, O.Seed, R,
                       Swift ? RelOpsMaxClosure : SIZE_MAX);
  }

  // Layer counters beyond the manifest, reported alongside.
  auto Count = [&](const char *Name, const std::string &Counter) {
    R.metric(Name, static_cast<double>(First.Stat.get(Counter)), "count", 1);
  };
  Count("bu.steps", "bu.steps");
  Count("bu.node_visits", "bu.node_visits");
  Count("bu.proc_analyses", "bu.proc_analyses");
  Count("bu.scc_iterations", "bu.scc_iterations");
  R.metric("bu.relations", static_cast<double>(First.BuRelations), "count", 1);
  Count("bu.pruned_relations", "bu.pruned_relations");
  if (Swift) {
    R.metric("td.self_s", TdSelf.median(), "s", TdSelf.size());
    R.metric("swift.bu_time_s", BuTime.median(), "s", BuTime.size());
    Count("td.path_edges", "td.path_edges");
    Count("td.summaries", "td.summaries");
    Count("budget.td_steps", "budget.td_steps");
    uint64_t Served = First.Stat.get("td.bu_served_calls");
    uint64_t Fallback = First.Stat.get("td.bu_fallback_calls");
    Count("td.bu_served_calls", "td.bu_served_calls");
    Count("td.bu_fallback_calls", "td.bu_fallback_calls");
    R.metric("td.serve_hit_ratio",
             Served + Fallback ? static_cast<double>(Served) /
                                     static_cast<double>(Served + Fallback)
                               : 0,
             "ratio", 1);
    Count("swift.bu_triggers", "swift.bu_triggers");
    Count("swift.bu_summary_rels", "swift.bu_summary_rels");
    Count("swift.bu_summary_sigma", "swift.bu_summary_sigma");
    R.metric("gov.peak_memory_mb",
             static_cast<double>(First.GovPeakBytes) / (1024.0 * 1024.0), "MB",
             1);
  }
  R.spans(Spans.table());
}

} // namespace

void perfbench::runSwiftBatch(const Options &O,
                              const std::map<std::string, Expected> &E,
                              Report &R) {
  runBatch(O, E, R, /*Swift=*/true);
}

void perfbench::runBuBatch(const Options &O,
                           const std::map<std::string, Expected> &E,
                           Report &R) {
  runBatch(O, E, R, /*Swift=*/false);
}
