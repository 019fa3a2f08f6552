//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Taint reachability as an `IfdsProblem`: the kill/gen instance of the
/// paper's Section 5.2, run through the generic adapter. Objects allocated
/// at designated source classes are tainted; taint propagates through
/// copies, loads, stores (field-insensitively, via a global per-field
/// fact), and calls; invoking a designated sink method on a tainted
/// receiver is a leak. Facts: Lambda, Var(v) "v may hold a tainted value",
/// Field(f) "some object's field f may be tainted", and Leak(p, n) "a sink
/// was reached at node n of procedure p" (absorbing, like the typestate
/// error state). tests/corpus/taint_leaks.txt pins its leak sites on the
/// Table 1 workloads and 200 fuzz seeds in every mode.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_IFDS_TAINTPROBLEM_H
#define SWIFT_CLIENTS_IFDS_TAINTPROBLEM_H

#include "clients/ifds/IfdsProblem.h"

#include <map>
#include <set>
#include <unordered_map>

namespace swift {
namespace ifds {

class TaintProblem : public IfdsProblem {
public:
  TaintProblem(const Program &Prog, std::set<Symbol> SourceClasses,
               std::set<Symbol> SinkMethods);

  std::string name() const override { return "taint"; }
  uint32_t numFacts() const override {
    return static_cast<uint32_t>(Info.size());
  }
  std::string factText(FactId F) const override;

  void transfer(ProcId P, const Command &Cmd, FactId F,
                std::vector<FactId> &Out) const override;
  void affected(const Command &Cmd,
                std::vector<FactId> &Out) const override;
  void lambdaGen(ProcId P, const Command &Cmd,
                 std::vector<FactId> &Out) const override;
  void enter(const clients::Binding &B, FactId F,
             std::vector<FactId> &Out) const override;
  void callLocal(const clients::Binding &B, FactId F,
                 std::vector<FactId> &Out) const override;
  void combineExit(const clients::Binding &B, FactId F,
                   std::vector<FactId> &Out) const override;
  void callFootprint(const clients::Binding &B,
                     std::vector<FactId> &Out) const override;
  bool isReport(FactId F) const override;
  bool reportSite(FactId F, ProcId &P, NodeId &N) const override;

private:
  enum class Kind : uint8_t { Lambda, Var, Field, Leak };
  struct FactInfo {
    Kind K = Kind::Lambda;
    Symbol Sym;                ///< Var / Field.
    ProcId P = InvalidProc;    ///< Leak.
    NodeId N = InvalidNode;    ///< Leak.
  };

  FactId varId(Symbol V) const {
    auto It = VarIds.find(V);
    assert(It != VarIds.end() && "unenumerated variable");
    return It->second;
  }
  FactId fieldId(Symbol F) const {
    auto It = FieldIds.find(F);
    assert(It != FieldIds.end() && "unenumerated field");
    return It->second;
  }
  FactId leakId(ProcId P, NodeId N) const {
    auto It = LeakIds.find({P, N});
    assert(It != LeakIds.end() && "unenumerated sink node");
    return It->second;
  }

  std::set<Symbol> Sources;
  std::set<Symbol> Sinks;
  std::vector<FactInfo> Info;
  std::unordered_map<Symbol, FactId> VarIds;
  std::unordered_map<Symbol, FactId> FieldIds;
  std::map<std::pair<ProcId, NodeId>, FactId> LeakIds;
  std::vector<FactId> AllFieldFacts; ///< For call footprints.
};

} // namespace ifds
} // namespace swift

#endif // SWIFT_CLIENTS_IFDS_TAINTPROBLEM_H
