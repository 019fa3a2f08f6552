//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the swift-perfbench harness: options, the per-run
/// report (metrics, operation accounting, traffic claims, deterministic
/// counters), sample statistics, the allocation counter, the expected
/// verdicts, and the span self-time analysis of a traced run.
///
/// The harness drives the analysis only through public entry points and
/// leaves the analysis code untouched; every layer number is either a
/// timer around one public call or a counter that call already returns.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_PERFBENCH_HARNESS_H
#define SWIFT_PERFBENCH_HARNESS_H

#include "genprog/GenConfig.h"
#include "ir/Program.h"
#include "typestate/AbstractState.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace swift {
namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Determinism self-check size: tiny programs, a fixed small amount of
  /// work, no wall-clock stopping rule.
  bool Tiny = false;
  std::string WorkDir;   ///< Scratch files (store, journal, spools).
  std::string WorkerBin; ///< swift-shard-worker, for shard-bu.
  std::string ExpectedPath;
};

//===----------------------------------------------------------------------===//
// Time and samples
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// A set of timing samples with order statistics.
class Samples {
public:
  void add(double V) { Vals.push_back(V); }
  size_t size() const { return Vals.size(); }
  /// Linear-interpolated quantile, \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  double sum() const;

private:
  std::vector<double> Vals;
};

/// Stops a measuring loop: after \p Seconds of wall clock, but never
/// before \p MinIters iterations (and in tiny mode after exactly
/// \p TinyIters, so the self-check does a fixed amount of work).
class StopRule {
public:
  StopRule(const Options &O, size_t MinIters, size_t TinyIters)
      : T0(Clock::now()), Seconds(O.Seconds), MinIters(MinIters),
        Tiny(O.Tiny), TinyIters(TinyIters) {}
  bool more(size_t Done) const {
    if (Tiny)
      return Done < TinyIters;
    return Done < MinIters || secondsSince(T0) < Seconds;
  }

private:
  Clock::time_point T0;
  double Seconds;
  size_t MinIters;
  bool Tiny;
  size_t TinyIters;
};

//===----------------------------------------------------------------------===//
// Allocation counter and resident memory
//===----------------------------------------------------------------------===//

/// Number of operator-new calls in this process so far (the replaced
/// global operator new in Harness.cpp counts them).
uint64_t allocCount();

/// Peak resident set of this process in MiB (getrusage).
double peakRssMb();
/// Peak resident set of the largest waited-for child process in MiB.
double peakChildRssMb();

//===----------------------------------------------------------------------===//
// Expected verdicts
//===----------------------------------------------------------------------===//

/// The reference verdict of one input, recorded from the top-down
/// analysis (the ground truth of Theorem 3.1).
struct Expected {
  std::set<SiteId> ErrorSites;
  std::string ExitDigest; ///< mainExitDigest() of main's exit states.
};

std::map<std::string, Expected> loadExpected(const std::string &Path);

/// Order-independent digest of main-exit states, rendered through the
/// program's own symbol table so it is stable across re-parses.
std::string mainExitDigest(const Program &Prog,
                           const std::set<TsAbstractState> &States);

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/// Totals of all spans of one name: self time (duration minus the time
/// covered by direct child spans on the same thread), inclusive time, and
/// how many there were.
struct SpanStat {
  double SelfSeconds = 0;
  double TotalSeconds = 0;
  uint64_t Count = 0;
};

class Report {
public:
  /// One reported metric: a number with its unit and sample count.
  void metric(const std::string &Name, double Value, const char *Unit,
              size_t SampleCount);
  /// A deterministic counter the self-check compares across runs.
  void counter(const std::string &Name, uint64_t Value);
  /// One operation attempted; \p Error empty means it succeeded.
  void op(const std::string &Error = "");
  /// A measured traffic claim of the design note, checked on every run.
  void claim(const std::string &Name, double Value, double Lo, double Hi,
             const std::string &Statement);
  /// Adds per-span-name times of a traced run.
  void spans(const std::map<std::string, SpanStat> &S);

  uint64_t failed() const { return Failed; }
  /// The whole report as one line of JSON.
  std::string json(const Options &O) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
    size_t SampleCount;
  };
  struct Claim {
    std::string Name;
    double Value, Lo, Hi;
    std::string Statement;
  };
  std::vector<Metric> Metrics;
  std::map<std::string, uint64_t> Counters;
  std::vector<Claim> Claims;
  std::map<std::string, SpanStat> Spans;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< First few failure messages.
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One generated input program: a Table 2 configuration, optionally with
/// the case-splitting share (GenConfig::GnarlyPerMille) lowered. Named
/// "toba-s" for the Table 2 program itself, "toba-s.g100" for the variant.
struct InputSpec {
  std::string Name;
  GenConfig Config;
};

InputSpec inputSpec(const std::string &Name);

/// Canonical swift-ir text of the input (the load generator's output;
/// never timed).
std::string inputText(const InputSpec &In);

/// The inputs of \p Workload at full or tiny (self-check) size.
std::vector<std::string> workloadInputs(const std::string &Workload,
                                        bool Tiny);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// The typestate class every generated program tracks.
inline const char *trackedClass() { return "File"; }

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Accumulates span times per span name over any number of trace windows.
class SpanTable {
public:
  /// Stops the recorder, folds its spans into the table, and drops them.
  void harvest();
  const std::map<std::string, SpanStat> &table() const { return Stats; }
  /// Self seconds of all spans named \p Name.
  double self(const std::string &Name) const;
  /// Self seconds of all spans whose name starts with \p Prefix: the
  /// inclusive time of the outermost ones.
  double selfWithPrefix(const std::string &Prefix) const;
  /// How many spans named \p Name there were.
  double count(const std::string &Name) const;
  /// Mean inclusive milliseconds of one span named \p Name.
  double meanMs(const std::string &Name) const;

private:
  std::map<std::string, SpanStat> Stats;
};

/// Starts the trace recorder (dropping anything buffered).
void traceOn();

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runSwiftBatch(const Options &O, const std::map<std::string, Expected> &E,
                   Report &R);
void runBuBatch(const Options &O, const std::map<std::string, Expected> &E,
                Report &R);
void runServeEdits(const Options &O, const std::map<std::string, Expected> &E,
                   Report &R);
void runShardBu(const Options &O, const std::map<std::string, Expected> &E,
                Report &R);

/// Per-call cost of the relation algebra on relations harvested from the
/// bottom-up summaries of \p Prog (rel.*_ns metrics). With \p MaxClosure
/// set, only procedures whose callee closure has at most that many
/// procedures are solved and sampled.
void measureRelationOps(Program &Prog, uint64_t Seed, Report &R,
                        size_t MaxClosure = SIZE_MAX);

} // namespace perfbench
} // namespace swift

#endif // SWIFT_PERFBENCH_HARNESS_H
