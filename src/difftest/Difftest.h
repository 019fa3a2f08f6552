//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing campaign: generate fuzz programs over a range
/// of seeds (reusing genprog's chaotic fuzzer with per-seed size knobs),
/// run an oracle on each, and on a violation reduce the program and write
/// a self-contained reproducer — the swift-ir text plus the violation
/// header — under an output directory. The loop and the replay take the
/// oracle as a parameter (programOracle, one per domain). Reproducers
/// replay with swift-difftest --replay=FILE or via the tests/corpus ctest
/// targets.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_DIFFTEST_H
#define SWIFT_DIFFTEST_DIFFTEST_H

#include "difftest/Oracle.h"
#include "difftest/Reducer.h"
#include "genprog/Fuzzer.h"

#include <ostream>
#include <string>
#include <vector>

namespace swift {
namespace difftest {

struct CampaignOptions {
  uint64_t FirstSeed = 1;
  uint64_t NumSeeds = 50;
  bool ReduceViolations = true;
  /// Reducer passes over the mutation phases, and its cap on oracle runs
  /// (see reduceViolation).
  size_t ReduceMaxRounds = 4;
  size_t ReduceMaxRuns = 400;
  /// Where reproducers are written; created if missing. Empty disables
  /// writing.
  std::string OutDir = "results/repros";
  /// Soft wall-clock cap for the whole campaign; the seed loop stops when
  /// exceeded (the seed in flight finishes).
  double BudgetSeconds = 1e18;
};

struct SeedReport {
  uint64_t Seed = 0;
  Violation First;              ///< First violation on this seed.
  size_t NumViolations = 0;
  std::string ReproPath;        ///< Empty if writing was disabled/failed.
  size_t ReducedProcs = 0;
  size_t ReducedStmts = 0;
};

struct CampaignResult {
  uint64_t SeedsRun = 0;
  std::vector<SeedReport> BadSeeds;
  bool StoppedOnBudget = false;
  /// Seeds whose TD reference run exhausted its budget: their reference-
  /// dependent checks were skipped (not failed). A campaign with such
  /// seeds and no violations is clean but resource-limited; tools report
  /// it with a distinct exit code.
  uint64_t ExhaustedSeeds = 0;
  bool clean() const { return BadSeeds.empty(); }
};

/// The per-seed fuzzer shape: sizes cycle with the seed so the campaign
/// covers small dense programs and wider call graphs alike.
FuzzConfig fuzzConfigForSeed(uint64_t Seed);

/// Runs \p Oracle over the campaign's seeds, logging one line per
/// violating seed to \p Log. A violating seed's program reduces while
/// \p Oracle keeps reporting a violation of its first violation's kind.
CampaignResult runCampaign(const CampaignOptions &Opts,
                           const ProgramOracle &Oracle, std::ostream &Log);

/// Writes a self-contained reproducer (violation header as comments +
/// swift-ir text) and returns its path; empty string on I/O failure.
std::string writeReproducer(const std::string &OutDir, uint64_t Seed,
                            const Violation &V,
                            const std::string &ProgramText);

/// Replays a reproducer (or any swift-ir file): parses it and runs
/// \p Oracle with concrete schedules seeded from \p InterpSeed. Throws
/// std::runtime_error on unreadable/malformed input.
OracleResult replayFile(const std::string &Path, const ProgramOracle &Oracle,
                        uint64_t InterpSeed = 1);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_DIFFTEST_H
