//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta-debugging reducer for oracle violations: given a program on which
/// the differential oracle fails, it greedily shrinks the program — drop
/// whole procedures, nop statements in ddmin-style chunks, prune branch
/// and loop edges, and merge the variable/field pools — re-checking after
/// every candidate that the oracle still reports a violation of the same
/// kind. Candidates are produced by re-rendering the program in the
/// swift-ir text format (allocation sites renumber densely in the
/// process) and re-parsing, so every accepted step is a well-formed,
/// self-contained reproducer.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_REDUCER_H
#define SWIFT_DIFFTEST_REDUCER_H

#include "difftest/Oracle.h"
#include "ir/Program.h"

#include <cstddef>
#include <string>

namespace swift {
namespace difftest {

struct ReduceResult {
  std::string Text;     ///< Reduced program, swift-ir v1 format.
  size_t NumProcs = 0;  ///< Procedures in the reduced program.
  size_t NumStmts = 0;  ///< Non-nop commands in the reduced program.
  size_t OracleRuns = 0;
};

/// Shrinks \p Prog while \p Oracle, with concrete schedules seeded from
/// \p InterpSeed, keeps reporting a violation of kind \p Kind. \p Prog
/// itself must exhibit such a violation; if it does not, the input is
/// returned unreduced. The oracle runs are the expensive part: \p MaxRuns
/// caps them and \p MaxRounds the passes over the mutation phases, so
/// keep the oracle's limits small. Candidates that fail to re-parse or
/// are not CFG-sane are rejected without consuming a run.
ReduceResult reduceViolation(const Program &Prog, CheckKind Kind,
                             const ProgramOracle &Oracle,
                             uint64_t InterpSeed, size_t MaxRounds = 4,
                             size_t MaxRuns = 400);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_REDUCER_H
