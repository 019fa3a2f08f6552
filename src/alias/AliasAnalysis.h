//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow- and context-insensitive, field-sensitive Andersen-style points-to
/// analysis over the whole program. It supplies the `mayalias(v, h)` oracle
/// that the typestate analysis consults for weak updates (summaries B3/B4
/// in the paper's Section 2), standing in for the may-alias analysis of the
/// Chord platform.
///
/// The solver is difference propagation (Pearce, Kelly & Hankin, SCAM
/// 2003): each node keeps its points-to set as a sorted site vector plus
/// the delta of sites not yet pushed to its successors, and a worklist pop
/// handles the delta alone. A copy edge added mid-solve copies its
/// source's whole set once.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_ALIAS_ALIASANALYSIS_H
#define SWIFT_ALIAS_ALIASANALYSIS_H

#include "ir/Program.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace swift {

class AliasAnalysis {
public:
  explicit AliasAnalysis(const Program &Prog);

  /// May variable \p V of procedure \p P point to an object allocated at
  /// site \p H? Sound over-approximation; unknown variables never point
  /// anywhere.
  bool mayPointTo(ProcId P, Symbol V, SiteId H) const {
    const std::vector<SiteId> &Pts = pointsTo(P, V);
    return std::binary_search(Pts.begin(), Pts.end(), H);
  }

  /// The points-to set of variable \p V of procedure \p P, in ascending
  /// site order (empty if the variable never occurs).
  const std::vector<SiteId> &pointsTo(ProcId P, Symbol V) const {
    static const std::vector<SiteId> Empty;
    int N = findVar(P, V);
    return N < 0 ? Empty : Nodes[N].Pts;
  }

  /// The points-to set of field \p F of objects allocated at \p H, in
  /// ascending site order.
  const std::vector<SiteId> &fieldPointsTo(SiteId H, Symbol F) const {
    static const std::vector<SiteId> Empty;
    int N = findField(H, F);
    return N < 0 ? Empty : Nodes[N].Pts;
  }

  /// Total size of all points-to sets (a cheap complexity metric).
  size_t totalPtsSize() const;

private:
  struct VarKey {
    ProcId P;
    Symbol V;
    bool operator==(const VarKey &O) const { return P == O.P && V == O.V; }
  };
  struct VarKeyHash {
    size_t operator()(const VarKey &K) const noexcept {
      return std::hash<uint64_t>()((static_cast<uint64_t>(K.P) << 32) |
                                   K.V.id());
    }
  };
  struct FieldKey {
    SiteId H;
    Symbol F;
    bool operator==(const FieldKey &O) const { return H == O.H && F == O.F; }
  };
  struct FieldKeyHash {
    size_t operator()(const FieldKey &K) const noexcept {
      return std::hash<uint64_t>()((static_cast<uint64_t>(K.H) << 32) |
                                   K.F.id());
    }
  };

  int findVar(ProcId P, Symbol V) const {
    auto It = VarIndex.find(VarKey{P, V});
    return It == VarIndex.end() ? -1 : static_cast<int>(It->second);
  }
  int findField(SiteId H, Symbol F) const {
    auto It = FieldIndex.find(FieldKey{H, F});
    return It == FieldIndex.end() ? -1 : static_cast<int>(It->second);
  }

  /// An index into Nodes; 32 bits, so an edge packs into one 64-bit key.
  using NodeIx = uint32_t;

  NodeIx varNode(ProcId P, Symbol V);
  NodeIx fieldNode(SiteId H, Symbol F);
  void addEdge(NodeIx From, NodeIx To);
  /// Adds the sites of the sorted vector \p Sites missing from node
  /// \p To's set to both its set and its delta. \p Sites must not be one
  /// of To's own vectors.
  void merge(const std::vector<SiteId> &Sites, NodeIx To);
  void solve();

  // Deferred (dynamic) constraints attached to the pointer operand.
  struct LoadConstraint {
    NodeIx Dst;
    Symbol Field;
  };
  struct StoreConstraint {
    NodeIx Src;
    Symbol Field;
  };

  struct Node {
    std::vector<SiteId> Pts;   ///< Sorted; includes the delta.
    std::vector<SiteId> Delta; ///< Sorted; not yet pushed to successors.
    std::vector<NodeIx> Copies;
    std::vector<LoadConstraint> Loads;
    std::vector<StoreConstraint> Stores;
  };

  std::unordered_map<VarKey, NodeIx, VarKeyHash> VarIndex;
  std::unordered_map<FieldKey, NodeIx, FieldKeyHash> FieldIndex;
  /// Grows when fieldNode() creates a node, so no reference into it may
  /// be held across that call.
  std::vector<Node> Nodes;
  /// Copy edges already present, keyed (From << 32) | To.
  std::unordered_set<uint64_t> EdgeSet;
  /// Nodes with a non-empty delta, each at most once.
  std::vector<NodeIx> Worklist;
  /// Scratch for merge().
  std::vector<SiteId> Fresh;
};

} // namespace swift

#endif // SWIFT_ALIAS_ALIASANALYSIS_H
