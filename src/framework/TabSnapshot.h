//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serializable snapshot of a TabulationSolver's mutable state: interned
/// states, the path-edge table, the worklist (exact order), top-down
/// summaries, caller-dependency lists, incoming-state counts, and the
/// observation set. Captured when a budget-limited run exhausts its
/// budget, written out as a checkpoint (src/govern/Checkpoint.h), and
/// restored into a fresh solver to resume.
///
/// What is *not* here, and why that is sound:
///  * Bottom-up summary caches and their refresh bookkeeping — dropped.
///    Resumed runs re-trigger the bottom-up analysis as needed, so they
///    may take other steps than an uninterrupted hybrid run; every
///    serving decision is guarded by Sigma, so error sites and main-exit
///    states at completion still coincide with the top-down analysis
///    (Theorem 3.1).
///  * The binding cache and Stats counters — derived/diagnostic, rebuilt.
///
/// For a *pure top-down* run the snapshot is exact: the tabulation loop is
/// deterministic and the budget check sits between worklist pops, so the
/// state at exhaustion equals the uninterrupted run's intermediate state,
/// and a resumed run's final results are bit-identical to an uninterrupted
/// run's (the checkpoint-resume oracle in src/difftest enforces this).
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_FRAMEWORK_TABSNAPSHOT_H
#define SWIFT_FRAMEWORK_TABSNAPSHOT_H

#include "ir/Command.h"

#include <cstdint>
#include <vector>

namespace swift {

template <typename State> struct TabSnapshot {
  /// One path edge (or worklist entry): fact (Entry, Cur) at Node of
  /// Proc. Entry/Cur index into States.
  struct SnapEdge {
    ProcId Proc;
    NodeId Node;
    uint32_t Entry;
    uint32_t Cur;
    friend bool operator<(const SnapEdge &A, const SnapEdge &B) {
      if (A.Proc != B.Proc)
        return A.Proc < B.Proc;
      if (A.Node != B.Node)
        return A.Node < B.Node;
      if (A.Entry != B.Entry)
        return A.Entry < B.Entry;
      return A.Cur < B.Cur;
    }
    friend bool operator==(const SnapEdge &A, const SnapEdge &B) {
      return A.Proc == B.Proc && A.Node == B.Node && A.Entry == B.Entry &&
             A.Cur == B.Cur;
    }
  };

  struct SummaryRow {
    ProcId Proc;
    uint32_t Entry;
    std::vector<uint32_t> Exits; ///< Discovery order (resumption order).
  };

  /// One waiting caller of (Callee, Entry): rows with the same key keep
  /// their registration order — recordSummary resumes them in order, so
  /// the order is part of the deterministic-replay state.
  struct DependentRow {
    ProcId Callee;
    uint32_t Entry;
    ProcId CallerProc;
    NodeId CallNode;
    uint32_t CallerEntry;
    uint32_t Frame;
  };

  struct IncomingRow {
    ProcId Proc;
    uint32_t Entry;
    uint64_t Count;
  };

  struct ObservedRow {
    ProcId Proc;
    NodeId Node;
    uint32_t StateId;
  };

  std::vector<State> States; ///< Id order: States[i] has interned id i.
  std::vector<SnapEdge> Edges; ///< Sorted (set semantics).
  std::vector<SnapEdge> Work;  ///< Exact worklist order (back = next pop).
  std::vector<SummaryRow> Summaries;
  std::vector<DependentRow> Dependents;
  std::vector<IncomingRow> Incoming;
  std::vector<uint8_t> EverCalled; ///< Indexed by ProcId.
  std::vector<ObservedRow> Observed;
  /// Budget steps the checkpointed run had consumed; reporting only (the
  /// resumed run's own budget starts fresh).
  uint64_t StepsConsumed = 0;
};

} // namespace swift

#endif // SWIFT_FRAMEWORK_TABSNAPSHOT_H
