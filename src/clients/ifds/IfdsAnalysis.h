//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic IFDS adapter: lowers any `IfdsProblem` onto the
/// framework's duck-typed `AnalysisTraits` contract. One template-free
/// traits type serves every client — the problem is runtime state carried
/// by the context — so `TabulationSolver<IfdsAnalysis>` and
/// `RelationalSolver<IfdsAnalysis>` instantiate once and run null-deref,
/// reaching-defs, taint, or any future kill/gen problem unchanged.
///
/// The bottom-up side is synthesized from the fact-level flow (the paper's
/// Section 5 recipe for the kill/gen family): relations are the identity
/// on the universe minus an explicit exclusion set, or a single summary
/// edge (from, to); `rtrans` peels each command's kill/gen footprint off
/// the identity into explicit edges, and `composeCall` routes edges
/// through callee summaries via enter / combine with Sigma pullbacks for
/// pruned inputs.
///
/// States are single dense fact ids, so the data-oriented core's interned
/// state table degenerates to the identity map and the memoized
/// transfer/enter/combine tables hit at full per-fact granularity.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_IFDS_IFDSANALYSIS_H
#define SWIFT_CLIENTS_IFDS_IFDSANALYSIS_H

#include "clients/ifds/IfdsProblem.h"
#include "ir/CallGraph.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>

namespace swift {
namespace ifds {

/// One adapter state: a dense fact id. Id 0 is Lambda.
struct IfdsFact {
  FactId Id = LambdaFact;

  static IfdsFact lambda() { return IfdsFact(); }
  static IfdsFact of(FactId F) { return IfdsFact{F}; }
  bool isLambda() const { return Id == LambdaFact; }

  friend bool operator==(const IfdsFact &A, const IfdsFact &B) {
    return A.Id == B.Id;
  }
  friend bool operator!=(const IfdsFact &A, const IfdsFact &B) {
    return A.Id != B.Id;
  }
  friend bool operator<(const IfdsFact &A, const IfdsFact &B) {
    return A.Id < B.Id;
  }
};

/// Environment of one adapter run: the program, its call graph, and the
/// problem instance under analysis.
class IfdsContext {
public:
  IfdsContext(const Program &Prog, const IfdsProblem &Problem)
      : Prog(Prog), CG(std::make_unique<CallGraph>(Prog)),
        Problem(Problem) {}

  const Program &program() const { return Prog; }
  const CallGraph &callGraph() const { return *CG; }
  const IfdsProblem &problem() const { return Problem; }

private:
  const Program &Prog;
  std::unique_ptr<CallGraph> CG;
  const IfdsProblem &Problem;
};

/// A bottom-up relation of the kill/gen family over dense fact ids.
struct IfdsRel {
  enum class Kind : uint8_t {
    IdentityExcept, ///< {(d, d) | d not in Excl, d != Lambda}
    Edge,           ///< {(From, To)}; From may be Lambda.
  };

  Kind K = Kind::IdentityExcept;
  std::vector<FactId> Excl; ///< Sorted, unique (IdentityExcept).
  FactId From = LambdaFact, To = LambdaFact; ///< Edge.

  static IfdsRel identity() { return IfdsRel(); }
  static IfdsRel identityExcept(std::vector<FactId> X) {
    IfdsRel R;
    std::sort(X.begin(), X.end());
    X.erase(std::unique(X.begin(), X.end()), X.end());
    R.Excl = std::move(X);
    return R;
  }
  static IfdsRel edge(FactId From, FactId To) {
    IfdsRel R;
    R.K = Kind::Edge;
    R.From = From;
    R.To = To;
    return R;
  }

  bool excludes(FactId F) const {
    return std::binary_search(Excl.begin(), Excl.end(), F);
  }

  friend bool operator==(const IfdsRel &A, const IfdsRel &B) {
    return A.K == B.K && A.Excl == B.Excl && A.From == B.From &&
           A.To == B.To;
  }
  friend bool operator<(const IfdsRel &A, const IfdsRel &B) {
    if (A.K != B.K)
      return A.K < B.K;
    if (A.K == Kind::IdentityExcept)
      return A.Excl < B.Excl;
    if (A.From != B.From)
      return A.From < B.From;
    return A.To < B.To;
  }
};

/// Ignored inputs (Sigma): an explicit fact-id set; domains of pruned
/// edges are singletons.
class IfdsIgnore {
public:
  bool containsLambda() const { return Lambda || All; }
  bool containsFact(const IfdsFact &F) const {
    if (All)
      return true;
    if (F.isLambda())
      return Lambda;
    return Facts.count(F.Id) != 0;
  }
  void makeAll() {
    All = true;
    Lambda = true;
    Facts.clear();
  }
  bool contains(const IfdsContext &Ctx, const IfdsFact &F) const {
    (void)Ctx;
    return containsFact(F);
  }
  bool addLambda() {
    bool Grew = !Lambda;
    Lambda = true;
    return Grew;
  }
  bool add(const IfdsFact &F) {
    if (F.isLambda())
      return addLambda();
    return Facts.insert(F.Id).second;
  }
  bool unionWith(const IfdsIgnore &Other) {
    if (All)
      return false;
    if (Other.All) {
      makeAll();
      return true;
    }
    bool Grew = false;
    if (Other.Lambda)
      Grew |= addLambda();
    for (FactId F : Other.Facts)
      Grew |= Facts.insert(F).second;
    return Grew;
  }
  friend bool operator==(const IfdsIgnore &A, const IfdsIgnore &B) {
    return A.All == B.All && A.Lambda == B.Lambda && A.Facts == B.Facts;
  }
  friend bool operator!=(const IfdsIgnore &A, const IfdsIgnore &B) {
    return !(A == B);
  }
  size_t size() const { return Facts.size() + (Lambda ? 1 : 0); }

private:
  bool All = false;
  bool Lambda = false;
  std::set<FactId> Facts;
};

/// Call-site binding: the generic IR-level binding plus nothing — all
/// domain interpretation lives in the problem.
struct IfdsBinding {
  IfdsBinding(const IfdsContext &Ctx, const Command &Cmd)
      : B(Ctx.program(), Cmd), Problem(&Ctx.problem()) {}
  clients::Binding B;
  const IfdsProblem *Problem;
};

struct IfdsAnalysis {
  using Context = IfdsContext;
  using State = IfdsFact;
  using Rel = IfdsRel;
  using Ignore = IfdsIgnore;
  using Binding = IfdsBinding;

  static std::vector<State> wrap(const std::vector<FactId> &Ids) {
    std::vector<State> Out;
    Out.reserve(Ids.size());
    for (FactId F : Ids)
      Out.push_back(IfdsFact::of(F));
    return Out;
  }

  // -- Top-down analysis --
  static State lambda() { return IfdsFact::lambda(); }
  static bool isLambda(const State &S) { return S.isLambda(); }
  static uint64_t stateHash(const State &S) {
    uint64_t X = S.Id + 0x9e3779b97f4a7c15ULL;
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    return X;
  }
  static std::vector<State> transfer(const Context &Ctx, ProcId P,
                                     const Command &Cmd, const State &S) {
    std::vector<FactId> Out;
    if (S.isLambda()) {
      Out.push_back(LambdaFact);
      Ctx.problem().lambdaGen(P, Cmd, Out);
    } else {
      Ctx.problem().transfer(P, Cmd, S.Id, Out);
    }
    return wrap(Out);
  }
  static Binding makeBinding(const Context &Ctx, ProcId P,
                             const Command &Cmd) {
    (void)P;
    return IfdsBinding(Ctx, Cmd);
  }
  static std::vector<State> enter(const Binding &B, const State &S) {
    if (S.isLambda())
      return {S};
    std::vector<FactId> Out;
    B.Problem->enter(B.B, S.Id, Out);
    return wrap(Out);
  }
  static std::vector<State> callLocal(const Binding &B, const State &S) {
    if (S.isLambda())
      return {}; // Lambda travels through the callee.
    std::vector<FactId> Out;
    B.Problem->callLocal(B.B, S.Id, Out);
    return wrap(Out);
  }
  static std::vector<State> combine(const Binding &B, const State &Frame,
                                    const State &Exit) {
    (void)Frame; // Atomic may-facts need no frame merge.
    return combineFresh(B, Exit);
  }
  static std::vector<State> combineFresh(const Binding &B,
                                         const State &Exit) {
    if (Exit.isLambda())
      return {Exit};
    std::vector<FactId> Out;
    B.Problem->combineExit(B.B, Exit.Id, Out);
    return wrap(Out);
  }

  // -- Bottom-up analysis (synthesized from the fact-level flow) --
  struct SummaryView {
    const std::vector<Rel> *Rels = nullptr;
    const Ignore *Sigma = nullptr;
  };

  static Rel identityRel(const Context &Ctx) {
    (void)Ctx;
    return IfdsRel::identity();
  }

  static std::vector<Rel> rtrans(const Context &Ctx, ProcId P,
                                 const Command &Cmd, const Rel &R) {
    const IfdsProblem &Pb = Ctx.problem();
    std::vector<Rel> Out;
    std::vector<FactId> Next;
    if (R.K == IfdsRel::Kind::Edge) {
      if (R.To == LambdaFact) {
        // Lambda-to-Lambda edges are implicit; edges never target Lambda.
        Out.push_back(R);
        return Out;
      }
      Pb.transfer(P, Cmd, R.To, Next);
      for (FactId F : Next)
        Out.push_back(IfdsRel::edge(R.From, F));
      return Out;
    }
    // Identity-except: facts in the command's footprint peel off into
    // explicit edges; the rest stay in the identity.
    std::vector<FactId> Affected;
    Pb.affected(Cmd, Affected);
    std::vector<FactId> NewExcl = R.Excl;
    for (FactId D : Affected) {
      if (R.excludes(D))
        continue;
      NewExcl.push_back(D);
      Next.clear();
      Pb.transfer(P, Cmd, D, Next);
      for (FactId F : Next)
        Out.push_back(IfdsRel::edge(D, F));
    }
    Out.push_back(IfdsRel::identityExcept(std::move(NewExcl)));
    return Out;
  }

  static std::vector<Rel> lambdaEmits(const Context &Ctx,
                                      const Command &Cmd) {
    std::vector<Rel> Out;
    std::vector<FactId> Gen;
    // The emission point's procedure is recovered by the problem from the
    // command's identity (see IfdsProblem::siteOf); pass InvalidProc to
    // make accidental use visible.
    Ctx.problem().lambdaGen(InvalidProc, Cmd, Gen);
    for (FactId F : Gen)
      Out.push_back(IfdsRel::edge(LambdaFact, F));
    return Out;
  }

  /// Composes one output fact of a caller relation through the call.
  static void composeFactThroughCall(const Context &Ctx, const Binding &B,
                                     FactId From, FactId Mid,
                                     const SummaryView &Callee,
                                     std::vector<Rel> &Out,
                                     Ignore &SigmaOut) {
    const IfdsProblem &Pb = Ctx.problem();
    std::vector<FactId> Local, Entered, Combined;
    Pb.callLocal(B.B, Mid, Local);
    for (FactId L : Local)
      Out.push_back(IfdsRel::edge(From, L));
    Pb.enter(B.B, Mid, Entered);
    for (FactId E : Entered) {
      if (Callee.Sigma->contains(Ctx, IfdsFact::of(E))) {
        SigmaOut.add(IfdsFact::of(From));
        continue;
      }
      for (const Rel &CR : *Callee.Rels) {
        if (CR.K == IfdsRel::Kind::Edge) {
          if (CR.From != E)
            continue;
          Combined.clear();
          Pb.combineExit(B.B, CR.To, Combined);
          for (FactId C : Combined)
            Out.push_back(IfdsRel::edge(From, C));
        } else if (E != LambdaFact && !CR.excludes(E)) {
          Combined.clear();
          Pb.combineExit(B.B, E, Combined);
          for (FactId C : Combined)
            Out.push_back(IfdsRel::edge(From, C));
        }
      }
    }
  }

  static void composeCall(const Context &Ctx, const Binding &B,
                          const Rel &R, const SummaryView &Callee,
                          std::vector<Rel> &Out, Ignore &SigmaOut) {
    if (R.K == IfdsRel::Kind::Edge) {
      composeFactThroughCall(Ctx, B, R.From, R.To, Callee, Out, SigmaOut);
      return;
    }
    // Identity-except through a call: facts with a non-trivial call
    // transfer peel off; the rest stay identical.
    std::vector<FactId> Footprint;
    Ctx.problem().callFootprint(B.B, Footprint);
    std::sort(Footprint.begin(), Footprint.end());
    Footprint.erase(std::unique(Footprint.begin(), Footprint.end()),
                    Footprint.end());

    std::vector<FactId> NewExcl = R.Excl;
    for (FactId D : Footprint) {
      if (R.excludes(D))
        continue;
      NewExcl.push_back(D);
      composeFactThroughCall(Ctx, B, D, D, Callee, Out, SigmaOut);
    }
    Out.push_back(IfdsRel::identityExcept(std::move(NewExcl)));
  }

  static void composeCallLambda(const Context &Ctx, const Binding &B,
                                const SummaryView &Callee,
                                std::vector<Rel> &Out, Ignore &SigmaOut) {
    if (Callee.Sigma->containsLambda()) {
      SigmaOut.addLambda();
      return;
    }
    std::vector<FactId> Combined;
    for (const Rel &CR : *Callee.Rels) {
      if (CR.K != IfdsRel::Kind::Edge || CR.From != LambdaFact)
        continue;
      Combined.clear();
      Ctx.problem().combineExit(B.B, CR.To, Combined);
      for (FactId C : Combined)
        Out.push_back(IfdsRel::edge(LambdaFact, C));
    }
  }

  static std::optional<State> applyRel(const Context &Ctx, const Rel &R,
                                       const State &S) {
    (void)Ctx;
    if (R.K == IfdsRel::Kind::Edge)
      return R.From == S.Id ? std::optional<State>(IfdsFact::of(R.To))
                            : std::nullopt;
    if (S.isLambda() || R.excludes(S.Id))
      return std::nullopt;
    return S;
  }

  // -- Observation support --
  static bool relMayObserve(const Context &Ctx, const Rel &R) {
    return R.K == IfdsRel::Kind::Edge && Ctx.problem().isReport(R.To);
  }
  static bool stateObservable(const Context &Ctx, const State &S) {
    return Ctx.problem().isReport(S.Id);
  }

  // -- Pruning support --
  static bool relIsPrunable(const Rel &R) {
    // Only edges from real facts are pruned; the identity is the
    // dominating general case and Lambda edges are bounded by gens.
    return R.K == IfdsRel::Kind::Edge && R.From != LambdaFact;
  }
  static size_t relGenerality(const Rel &R) {
    return R.K == IfdsRel::Kind::IdentityExcept ? 0 : 1;
  }
  static bool domContains(const Context &Ctx, const Rel &R,
                          const State &S) {
    (void)Ctx;
    if (R.K == IfdsRel::Kind::Edge)
      return R.From == S.Id;
    return !S.isLambda() && !R.excludes(S.Id);
  }
  static void addDomToIgnore(const Rel &R, Ignore &Sigma) {
    assert(R.K == IfdsRel::Kind::Edge && "only edges are pruned");
    Sigma.add(IfdsFact::of(R.From));
  }
  static bool ignoreCoversDom(const Ignore &Sigma, const Rel &R) {
    if (R.K == IfdsRel::Kind::Edge)
      return Sigma.containsFact(IfdsFact::of(R.From));
    return false;
  }
  static void ignoreAll(Ignore &Sigma) { Sigma.makeAll(); }
};

} // namespace ifds
} // namespace swift

namespace std {
template <> struct hash<swift::ifds::IfdsFact> {
  size_t operator()(const swift::ifds::IfdsFact &F) const noexcept {
    return static_cast<size_t>(
        swift::ifds::IfdsAnalysis::stateHash(F));
  }
};
} // namespace std

#endif // SWIFT_CLIENTS_IFDS_IFDSANALYSIS_H
