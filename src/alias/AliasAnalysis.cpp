//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "alias/AliasAnalysis.h"

#include <cassert>
#include <iterator>

using namespace swift;

namespace {

/// Merges the sorted \p Src, disjoint from the sorted \p Dst, into
/// \p Dst, back to front so no scratch buffer is needed.
void mergeDisjoint(std::vector<SiteId> &Dst, const std::vector<SiteId> &Src) {
  size_t I = Dst.size(), J = Src.size();
  Dst.resize(I + J);
  for (size_t K = Dst.size(); J != 0;)
    Dst[--K] = I != 0 && Dst[I - 1] > Src[J - 1] ? Dst[--I] : Src[--J];
}

} // namespace

AliasAnalysis::NodeIx AliasAnalysis::varNode(ProcId P, Symbol V) {
  auto [It, Inserted] =
      VarIndex.try_emplace(VarKey{P, V}, static_cast<NodeIx>(Nodes.size()));
  if (Inserted)
    Nodes.emplace_back();
  return It->second;
}

AliasAnalysis::NodeIx AliasAnalysis::fieldNode(SiteId H, Symbol F) {
  auto [It, Inserted] = FieldIndex.try_emplace(
      FieldKey{H, F}, static_cast<NodeIx>(Nodes.size()));
  if (Inserted)
    Nodes.emplace_back();
  return It->second;
}

void AliasAnalysis::merge(const std::vector<SiteId> &Sites, NodeIx To) {
  Node &T = Nodes[To];
  Fresh.clear();
  std::set_difference(Sites.begin(), Sites.end(), T.Pts.begin(),
                      T.Pts.end(), std::back_inserter(Fresh));
  if (Fresh.empty())
    return;
  mergeDisjoint(T.Pts, Fresh);
  if (T.Delta.empty())
    Worklist.push_back(To);
  mergeDisjoint(T.Delta, Fresh);
}

void AliasAnalysis::addEdge(NodeIx From, NodeIx To) {
  // A self edge adds nothing to the fixpoint.
  if (From == To ||
      !EdgeSet.insert((static_cast<uint64_t>(From) << 32) | To).second)
    return;
  Nodes[From].Copies.push_back(To);
  // The new edge carries the whole current set once; later growth of
  // From reaches To through From's delta.
  merge(Nodes[From].Pts, To);
}

AliasAnalysis::AliasAnalysis(const Program &Prog) {
  // Build base constraints from every command in the program.
  for (ProcId P = 0; P != Prog.numProcs(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    for (const CfgNode &Node : Proc.nodes()) {
      const Command &C = Node.Cmd;
      switch (C.Kind) {
      case CmdKind::Nop:
      case CmdKind::AssignNull:
      case CmdKind::TsCall:
        break;
      case CmdKind::Alloc:
        merge({C.Site}, varNode(P, C.Dst));
        break;
      case CmdKind::Copy:
        addEdge(varNode(P, C.Src), varNode(P, C.Dst));
        break;
      case CmdKind::Load: {
        // varNode may grow Nodes; resolve both nodes first.
        NodeIx Dst = varNode(P, C.Dst);
        NodeIx Base = varNode(P, C.Src);
        Nodes[Base].Loads.push_back(LoadConstraint{Dst, C.Field});
        break;
      }
      case CmdKind::Store: {
        NodeIx Base = varNode(P, C.Dst);
        NodeIx Src = varNode(P, C.Src);
        Nodes[Base].Stores.push_back(StoreConstraint{Src, C.Field});
        break;
      }
      case CmdKind::Call: {
        const Procedure &Callee = Prog.proc(C.Callee);
        assert(C.Args.size() == Callee.params().size());
        for (size_t I = 0; I != C.Args.size(); ++I)
          addEdge(varNode(P, C.Args[I]),
                  varNode(C.Callee, Callee.params()[I]));
        if (C.Dst.isValid())
          addEdge(varNode(C.Callee, Prog.retVar()), varNode(P, C.Dst));
        break;
      }
      }
    }
  }
  solve();
}

void AliasAnalysis::solve() {
  while (!Worklist.empty()) {
    NodeIx N = Worklist.back();
    Worklist.pop_back();
    std::vector<SiteId> Delta = std::move(Nodes[N].Delta);
    Nodes[N].Delta.clear();

    // Materialize the load/store edges the new sites imply. fieldNode()
    // may grow Nodes, so constraints are copied out by index and no
    // reference into Nodes lives across the call.
    for (size_t I = 0; I != Nodes[N].Loads.size(); ++I) {
      LoadConstraint L = Nodes[N].Loads[I];
      for (SiteId H : Delta)
        addEdge(fieldNode(H, L.Field), L.Dst);
    }
    for (size_t I = 0; I != Nodes[N].Stores.size(); ++I) {
      StoreConstraint S = Nodes[N].Stores[I];
      for (SiteId H : Delta)
        addEdge(S.Src, fieldNode(H, S.Field));
    }

    // Push the new sites along the copy edges. Edges added above already
    // carried them; merging them again is a no-op. merge() creates no
    // node, so iterating Copies directly is safe.
    for (NodeIx To : Nodes[N].Copies)
      merge(Delta, To);
  }
}

size_t AliasAnalysis::totalPtsSize() const {
  size_t Total = 0;
  for (const Node &N : Nodes)
    Total += N.Pts.size();
  return Total;
}
