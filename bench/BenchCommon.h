//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table/figure reproduction binaries: budget
/// parsing, run helpers, and the paper-style cell formatting. Every
/// binary accepts:
///
///   --budget=SECONDS   per-run analysis budget (default 15; the stand-in
///                      for the paper's 24 h / 16 GB limit)
///   --bench=NAMES      restrict to the comma-separated workload names
///   --threads=N        worker threads per bottom-up solve (default 1)
///   --trace-out=F      write a Chrome/Perfetto trace of the whole bench
///                      run to F (flushed at exit; MANUAL section 9)
///   --metrics-out=F    write a swift-metrics JSON snapshot to F; its
///                      counters are the stats of every run the bench
///                      recorded, summed
///   --json-out=F       write a machine-readable "swift-bench" v1 result
///                      (obs/BenchResult.h) to F; the perf-trajectory
///                      input of tools/swift-benchdiff (MANUAL section 10)
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_BENCH_BENCHCOMMON_H
#define SWIFT_BENCH_BENCHCOMMON_H

#include "genprog/Generator.h"
#include "genprog/Workloads.h"
#include "obs/BenchResult.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/CliParse.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "typestate/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace swift {
namespace bench {

struct Options {
  double BudgetSeconds = 15.0;
  uint64_t BudgetSteps = 200'000'000;
  std::string Only;     ///< Workload filter: comma-separated exact names.
  unsigned Threads = 1; ///< Worker threads per bottom-up solve.
  std::string TraceOut;   ///< Chrome trace output path (empty = off).
  std::string MetricsOut; ///< swift-metrics snapshot path (empty = off).
  std::string JsonOut;    ///< swift-bench result path (empty = off).
  bool ShowHelp = false;
};

inline const char *optionsUsage() {
  return "[--budget=SECONDS] [--bench=NAME[,NAME...]] [--threads=N] "
         "[--trace-out=F] [--metrics-out=F] [--json-out=F]";
}

/// True when \p Name passes the --bench filter: no filter, or an exact
/// match of one of its comma-separated entries (the CI perf gate runs a
/// fixed subset of workloads in one invocation this way).
inline bool matchesOnly(const Options &O, std::string_view Name) {
  if (O.Only.empty())
    return true;
  std::string_view Rest = O.Only;
  while (!Rest.empty()) {
    size_t Comma = Rest.find(',');
    std::string_view Entry = Rest.substr(0, Comma);
    if (Entry == Name)
      return true;
    if (Comma == std::string_view::npos)
      break;
    Rest.remove_prefix(Comma + 1);
  }
  return false;
}

/// Strict flag parsing: numeric values are validated (no atoi — "-1" or
/// "abc" is an error, not 4294967295 workers or a 0-second budget) and
/// unknown flags are rejected. Returns false with a message in \p Err.
inline bool parseOptionsInto(int Argc, char **Argv, Options &O,
                             std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    std::string_view V;
    if (cli::matchValueFlag(A, "--budget=", V)) {
      if (!cli::parseNonNegDouble(V, O.BudgetSeconds)) {
        Err = "invalid --budget value '" + std::string(V) +
              "' (want a non-negative number of seconds)";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--bench=", V)) {
      O.Only = V;
    } else if (cli::matchValueFlag(A, "--threads=", V)) {
      if (!cli::parseUnsigned(V, O.Threads, 1, 1024)) {
        Err = "invalid --threads value '" + std::string(V) +
              "' (want an integer in [1, 1024])";
        return false;
      }
    } else if (cli::matchValueFlag(A, "--trace-out=", V)) {
      if (V.empty()) {
        Err = "--trace-out needs a file path";
        return false;
      }
      O.TraceOut = V;
    } else if (cli::matchValueFlag(A, "--metrics-out=", V)) {
      if (V.empty()) {
        Err = "--metrics-out needs a file path";
        return false;
      }
      O.MetricsOut = V;
    } else if (cli::matchValueFlag(A, "--json-out=", V)) {
      if (V.empty()) {
        Err = "--json-out needs a file path";
        return false;
      }
      O.JsonOut = V;
    } else if (A == "--help") {
      O.ShowHelp = true;
    } else {
      Err = "unknown flag '" + std::string(A) + "'";
      return false;
    }
  }
  return true;
}

/// The stats of every run a Reporter recorded in this invocation, summed:
/// the counters of the --metrics-out snapshot.
inline Stats &recordedStats() {
  static Stats S;
  return S;
}

/// Enables tracing/metrics per \p O and registers an atexit flusher, so
/// every bench binary gets --trace-out/--metrics-out without per-main
/// plumbing. An observability write failure warns on stderr only.
inline void initObservability(const Options &O) {
  static std::string TracePath;   // Read by the atexit handler.
  static std::string MetricsPath; // Read by the atexit handler.
  if (O.TraceOut.empty() && O.MetricsOut.empty())
    return;
  TracePath = O.TraceOut;
  MetricsPath = O.MetricsOut;
  if (!TracePath.empty())
    obs::TraceRecorder::instance().start();
  if (!MetricsPath.empty())
    obs::MetricsRegistry::instance().enable();
  // Construct what the flusher reads before registering it, so neither is
  // destroyed before it runs: the summed stats and the process-wide
  // counter-name registry (created by the first Stats::id).
  (void)recordedStats();
  (void)Stats::id("budget.td_steps");
  std::atexit(+[] {
    std::string Err;
    if (!TracePath.empty()) {
      obs::TraceRecorder::instance().stop();
      if (!obs::TraceRecorder::instance().flushToFile(TracePath, &Err))
        std::fprintf(stderr, "warning: trace write failed: %s\n",
                     Err.c_str());
    }
    if (!MetricsPath.empty() &&
        !obs::MetricsRegistry::instance().writeSnapshot(
            MetricsPath, &recordedStats(), &Err))
      std::fprintf(stderr, "warning: metrics write failed: %s\n",
                   Err.c_str());
  });
}

/// parseOptionsInto with the standard CLI behavior: prints usage and exits
/// 0 on --help, prints the error and exits 2 on a bad flag. Also arms
/// tracing/metrics when the flags ask for them.
inline Options parseOptions(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseOptionsInto(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", Argv[0], Err.c_str(),
                 Argv[0], optionsUsage());
    std::exit(2);
  }
  if (O.ShowHelp) {
    std::printf("usage: %s %s\n", Argv[0], optionsUsage());
    std::exit(0);
  }
  initObservability(O);
  return O;
}

/// Collects swift-bench v1 rows during a bench run and writes them to
/// --json-out at the end. Construct after parseOptions, call add()/
/// addRow() per run, and make main return `Rep.flush() ? 0 : 1` so a
/// failed result write fails the (CI) invocation instead of passing
/// silently with a table on stdout and no JSON on disk.
class Reporter {
public:
  Reporter(const Options &O, std::string BenchName) : Path(O.JsonOut) {
    R.Bench = std::move(BenchName);
    R.Context.emplace_back("budget_seconds", O.BudgetSeconds);
    R.Context.emplace_back("budget_steps", double(O.BudgetSteps));
    R.Context.emplace_back("threads", double(O.Threads));
  }

  /// Records a solver run: wall time, budget steps, and the two headline
  /// result sizes. Timeout rows keep their (budget-truncated) numbers
  /// for the record; swift-benchdiff skips them.
  void add(const std::string &Workload, const std::string &Config,
           const RunCounts &Res) {
    obs::benchjson::Row &W = addRow(Workload, Config, Res);
    W.set("seconds", Res.Seconds);
    W.set("steps", double(Res.Steps));
    W.set("td_summaries", double(Res.TdSummaries));
    W.set("bu_relations", double(Res.BuRelations));
  }

  /// Records a custom row (static characteristics, micro-op timings...).
  /// Metrics must be lower-is-better by the swift-bench convention.
  obs::benchjson::Row &addRow(const std::string &Workload,
                              const std::string &Config) {
    return R.newRow(Workload, Config);
  }

  /// A custom row for solver run \p Run: carries its timeout flag and
  /// adds its stats to recordedStats().
  obs::benchjson::Row &addRow(const std::string &Workload,
                              const std::string &Config,
                              const RunCounts &Run) {
    recordedStats().merge(Run.Stat);
    obs::benchjson::Row &W = R.newRow(Workload, Config);
    W.Timeout = Run.Timeout;
    return W;
  }

  /// Writes the result if --json-out was given. True when disabled or
  /// the write succeeded; on failure warns on stderr and returns false.
  bool flush() const {
    if (Path.empty())
      return true;
    std::string Err;
    if (obs::benchjson::writeReport(R, Path, &Err)) {
      std::fprintf(stderr, "wrote %s (%zu rows)\n", Path.c_str(),
                   R.Rows.size());
      return true;
    }
    std::fprintf(stderr, "error: bench result write failed: %s\n",
                 Err.c_str());
    return false;
  }

private:
  std::string Path;
  obs::benchjson::Report R;
};

inline RunLimits limits(const Options &O) {
  RunLimits L;
  L.MaxSeconds = O.BudgetSeconds;
  L.MaxSteps = O.BudgetSteps;
  return L;
}

/// "timeout" or a paper-style time like "4m44s" / "0.91s".
inline std::string timeCell(const RunCounts &R) {
  return R.Timeout ? "timeout" : formatSeconds(R.Seconds);
}

/// "-" on timeout, else a thousands-style count ("6.5k").
inline std::string countCell(const TsRunResult &R, uint64_t N) {
  return R.Timeout ? "-" : Stats::formatThousands(N);
}

/// Speedup cell: "3.5X", ">3.5X" when the baseline timed out, "-" when
/// the subject timed out.
inline std::string speedupCell(const TsRunResult &Base,
                               const TsRunResult &Subject,
                               double BudgetSeconds) {
  if (Subject.Timeout)
    return "-";
  double BaseTime = Base.Timeout ? BudgetSeconds : Base.Seconds;
  double Ratio = BaseTime / std::max(Subject.Seconds, 1e-9);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%s%.1fX", Base.Timeout ? ">" : "",
                Ratio);
  return Buf;
}

} // namespace bench
} // namespace swift

#endif // SWIFT_BENCH_BENCHCOMMON_H
