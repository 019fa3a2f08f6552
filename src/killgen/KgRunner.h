//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points for the taint (kill/gen family) analysis: TD, BU, and
/// SWIFT, mirroring typestate/Runner.h. A "leak" is a sink method invoked
/// on a possibly-tainted receiver.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_KILLGEN_KGRUNNER_H
#define SWIFT_KILLGEN_KGRUNNER_H

#include "framework/RunDriver.h"
#include "killgen/KgAnalysis.h"

#include <set>
#include <utility>

namespace swift {

struct KgRunResult : RunCounts {
  /// Sink call sites reachable by tainted receivers: (proc, node).
  std::set<std::pair<ProcId, NodeId>> Leaks;
};

KgRunResult runTaintTd(const KgContext &Ctx, RunLimits Limits = {});
/// \p Threads is the worker count of each triggered bottom-up solve
/// (SCC-DAG wavefront); results are identical for every value.
KgRunResult runTaintSwift(const KgContext &Ctx, uint64_t K, uint64_t Theta,
                          RunLimits Limits = {}, unsigned Threads = 1);
KgRunResult runTaintBu(const KgContext &Ctx, RunLimits Limits = {},
                       unsigned Threads = 1);

} // namespace swift

#endif // SWIFT_KILLGEN_KGRUNNER_H
