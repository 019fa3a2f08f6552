//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "difftest/Reducer.h"

#include "ir/Dumper.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

using namespace swift;
using namespace swift::difftest;

namespace {

/// One candidate shrink, expressed against the current baseline program
/// and applied while re-rendering it to swift-ir text.
struct Mutation {
  std::set<ProcId> DropProcs;                       ///< Omit these bodies.
  std::set<std::pair<ProcId, NodeId>> NopNodes;     ///< Command -> nop.
  std::set<std::tuple<ProcId, NodeId, size_t>> DropEdges; ///< By succ index.
  std::map<std::pair<ProcId, Symbol>, Symbol> VarRename;  ///< Per-proc.
  std::map<Symbol, Symbol> FieldRename;                   ///< Global.
};

/// Renders \p Prog with \p Mut applied. Calls to dropped procedures become
/// nops; allocation sites renumber densely in emission order, so the text
/// always re-parses.
std::string renderMutated(const Program &Prog, const Mutation &Mut) {
  const SymbolTable &Syms = Prog.symbols();
  std::ostringstream OS;
  OS << "# swift-ir v1 (reduced)\n";

  for (size_t I = 0; I != Prog.numSpecs(); ++I) {
    const TypestateSpec &Spec = Prog.spec(I);
    OS << "typestate " << Syms.text(Spec.name()) << " {\n  states";
    for (size_t S = 0; S != Spec.numStates(); ++S)
      OS << " " << Syms.text(Spec.stateName(static_cast<TState>(S)));
    OS << "\n  init " << Syms.text(Spec.stateName(Spec.initState()))
       << "\n  error " << Syms.text(Spec.stateName(Spec.errorState()))
       << "\n";
    std::vector<Symbol> Methods;
    for (const auto &[M, Tr] : Spec.methods()) {
      (void)Tr;
      Methods.push_back(M);
    }
    std::sort(Methods.begin(), Methods.end(), [&](Symbol A, Symbol B) {
      return Syms.text(A) < Syms.text(B);
    });
    for (Symbol M : Methods) {
      OS << "  method " << Syms.text(M) << " =";
      for (TState To : Spec.transformer(M))
        OS << " " << Syms.text(Spec.stateName(To));
      OS << "\n";
    }
    OS << "}\n";
  }

  SiteId NextSite = 0;
  for (size_t PI = 0; PI != Prog.numProcs(); ++PI) {
    ProcId P = static_cast<ProcId>(PI);
    if (Mut.DropProcs.count(P))
      continue;
    const Procedure &Proc = Prog.proc(P);

    auto Var = [&](Symbol V) -> const std::string & {
      auto It = Mut.VarRename.find({P, V});
      return Syms.text(It == Mut.VarRename.end() ? V : It->second);
    };
    auto Field = [&](Symbol F) -> const std::string & {
      auto It = Mut.FieldRename.find(F);
      return Syms.text(It == Mut.FieldRename.end() ? F : It->second);
    };

    OS << "proc " << Syms.text(Proc.name()) << "(";
    for (size_t I = 0; I != Proc.params().size(); ++I)
      OS << (I ? " " : "") << Syms.text(Proc.params()[I]);
    OS << ") entry " << Proc.entry() << " exit " << Proc.exit()
       << " nodes " << Proc.numNodes() << " {\n";

    for (NodeId N = 0; N != Proc.numNodes(); ++N) {
      const Command &C = Proc.node(N).Cmd;
      OS << "  " << N << ": ";
      bool Nopped = Mut.NopNodes.count({P, N}) ||
                    (C.Kind == CmdKind::Call &&
                     Mut.DropProcs.count(C.Callee));
      if (Nopped) {
        OS << "nop";
      } else {
        switch (C.Kind) {
        case CmdKind::Nop:
          OS << "nop";
          break;
        case CmdKind::Alloc:
          OS << Var(C.Dst) << " = new " << Syms.text(C.Class) << " @"
             << NextSite++;
          break;
        case CmdKind::Copy:
          OS << Var(C.Dst) << " = " << Var(C.Src);
          break;
        case CmdKind::AssignNull:
          OS << Var(C.Dst) << " = null";
          break;
        case CmdKind::Load:
          OS << Var(C.Dst) << " = " << Var(C.Src) << "." << Field(C.Field);
          break;
        case CmdKind::Store:
          OS << Var(C.Dst) << "." << Field(C.Field) << " = " << Var(C.Src);
          break;
        case CmdKind::TsCall:
          OS << Var(C.Src) << "." << Syms.text(C.Method) << "()";
          break;
        case CmdKind::Call:
          if (C.Dst.isValid())
            OS << Var(C.Dst) << " = ";
          OS << "call " << Syms.text(Prog.proc(C.Callee).name()) << "(";
          for (size_t I = 0; I != C.Args.size(); ++I)
            OS << (I ? " " : "") << Var(C.Args[I]);
          OS << ")";
          break;
        }
      }
      OS << " ->";
      const std::vector<NodeId> &Succs = Proc.node(N).Succs;
      for (size_t I = 0; I != Succs.size(); ++I)
        if (!Mut.DropEdges.count({P, N, I}))
          OS << " " << Succs[I];
      OS << "\n";
    }
    OS << "}\n";
  }

  OS << "main " << Syms.text(Prog.proc(Prog.mainProc()).name()) << "\n";
  return OS.str();
}

/// The interpreter and the analyses both assume structured-ish CFGs: every
/// entry-reachable node can still reach the exit and never gets stuck.
/// Edge dropping can break that; such candidates are rejected outright.
bool cfgSane(const Program &Prog) {
  for (size_t PI = 0; PI != Prog.numProcs(); ++PI) {
    const Procedure &P = Prog.proc(static_cast<ProcId>(PI));
    std::vector<uint8_t> Fwd(P.numNodes(), 0);
    std::vector<NodeId> Work{P.entry()};
    Fwd[P.entry()] = 1;
    while (!Work.empty()) {
      NodeId N = Work.back();
      Work.pop_back();
      if (N != P.exit() && P.node(N).Succs.empty())
        return false; // stuck state
      for (NodeId S : P.node(N).Succs)
        if (!Fwd[S]) {
          Fwd[S] = 1;
          Work.push_back(S);
        }
    }
    if (!Fwd[P.exit()])
      return false;
    // Backward reachability from exit, restricted to forward-reachable
    // nodes: every reachable node must have a path to the exit.
    std::vector<std::vector<NodeId>> Preds(P.numNodes());
    for (NodeId N = 0; N != P.numNodes(); ++N)
      if (Fwd[N])
        for (NodeId S : P.node(N).Succs)
          Preds[S].push_back(N);
    std::vector<uint8_t> Bwd(P.numNodes(), 0);
    Work.push_back(P.exit());
    Bwd[P.exit()] = 1;
    while (!Work.empty()) {
      NodeId N = Work.back();
      Work.pop_back();
      for (NodeId Q : Preds[N])
        if (!Bwd[Q]) {
          Bwd[Q] = 1;
          Work.push_back(Q);
        }
    }
    for (NodeId N = 0; N != P.numNodes(); ++N)
      if (Fwd[N] && !Bwd[N])
        return false;
  }
  return true;
}

size_t countStmts(const Program &Prog) {
  size_t N = 0;
  for (size_t P = 0; P != Prog.numProcs(); ++P)
    for (const CfgNode &Node : Prog.proc(static_cast<ProcId>(P)).nodes())
      if (Node.Cmd.Kind != CmdKind::Nop)
        ++N;
  return N;
}

class Reducer {
public:
  Reducer(std::function<bool(const Program &)> Pred, size_t MaxRounds,
          size_t MaxRuns)
      : Pred(std::move(Pred)), MaxRounds(MaxRounds), MaxRuns(MaxRuns) {}

  ReduceResult run(const Program &Seed);

private:
  /// True if the candidate parses, is CFG-sane, and still satisfies the
  /// interestingness predicate. Counts one predicate run.
  bool stillFails(const std::string &Text,
                  std::unique_ptr<Program> &ParsedOut);
  /// Tries \p Mut against the baseline; on success installs the result as
  /// the new baseline.
  bool tryMutation(const Mutation &Mut);

  bool phaseDropProcs();
  bool phaseNopStmts();
  bool phaseDropEdges();
  bool phaseMergeVars();
  bool phaseMergeFields();

  bool budgetLeft() const { return OracleRuns < MaxRuns; }

  std::function<bool(const Program &)> Pred;
  size_t MaxRounds;
  size_t MaxRuns;
  std::unique_ptr<Program> Cur;
  std::string CurText;
  size_t OracleRuns = 0;
};

bool Reducer::stillFails(const std::string &Text,
                         std::unique_ptr<Program> &ParsedOut) {
  if (!budgetLeft())
    return false;
  std::unique_ptr<Program> P;
  try {
    P = parseProgramText(Text);
  } catch (const std::exception &) {
    return false;
  }
  if (!cfgSane(*P))
    return false;
  ++OracleRuns;
  if (Pred(*P)) {
    ParsedOut = std::move(P);
    return true;
  }
  return false;
}

bool Reducer::tryMutation(const Mutation &Mut) {
  std::string Text = renderMutated(*Cur, Mut);
  std::unique_ptr<Program> P;
  if (!stillFails(Text, P))
    return false;
  Cur = std::move(P);
  CurText = std::move(Text);
  return true;
}

// NOTE for all phases: a successful tryMutation REPLACES *Cur, so every
// Procedure reference and every Symbol captured from the old baseline is
// dead (re-parsing even re-interns symbols in a new table). Phases
// therefore rebuild their candidate list from Cur on every iteration and
// only keep a plain index across acceptances: after an acceptance the
// index stays (the candidate there was consumed), after a rejection it
// advances.

bool Reducer::phaseDropProcs() {
  bool Any = false;
  size_t Idx = 0;
  while (budgetLeft()) {
    std::vector<ProcId> Cands;
    for (size_t PI = 0; PI != Cur->numProcs(); ++PI)
      if (static_cast<ProcId>(PI) != Cur->mainProc())
        Cands.push_back(static_cast<ProcId>(PI));
    if (Idx >= Cands.size())
      break;
    Mutation M;
    M.DropProcs.insert(Cands[Idx]);
    if (tryMutation(M))
      Any = true;
    else
      ++Idx;
  }
  return Any;
}

bool Reducer::phaseNopStmts() {
  bool Any = false;
  auto Targets = [&] {
    std::vector<std::pair<ProcId, NodeId>> T;
    for (size_t PI = 0; PI != Cur->numProcs(); ++PI) {
      const Procedure &Proc = Cur->proc(static_cast<ProcId>(PI));
      for (NodeId N = 0; N != Proc.numNodes(); ++N)
        if (Proc.node(N).Cmd.Kind != CmdKind::Nop)
          T.emplace_back(static_cast<ProcId>(PI), N);
    }
    return T;
  };

  // ddmin-style: nop whole chunks of the statement list, halving the chunk
  // size when no chunk can be removed.
  std::vector<std::pair<ProcId, NodeId>> T = Targets();
  size_t Chunk = std::max<size_t>(1, T.size() / 2);
  while (budgetLeft() && !T.empty()) {
    bool Progress = false;
    for (size_t Start = 0; Start < T.size() && budgetLeft();
         Start += Chunk) {
      Mutation M;
      for (size_t I = Start; I < std::min(Start + Chunk, T.size()); ++I)
        M.NopNodes.insert(T[I]);
      if (tryMutation(M)) {
        Any = Progress = true;
        T = Targets();
        if (Start >= T.size())
          break;
      }
    }
    if (!Progress) {
      if (Chunk == 1)
        break;
      Chunk = std::max<size_t>(1, Chunk / 2);
    }
  }
  return Any;
}

bool Reducer::phaseDropEdges() {
  bool Any = false;
  size_t Idx = 0;
  while (budgetLeft()) {
    std::vector<std::tuple<ProcId, NodeId, size_t>> Cands;
    for (size_t PI = 0; PI != Cur->numProcs(); ++PI) {
      const Procedure &Proc = Cur->proc(static_cast<ProcId>(PI));
      for (NodeId N = 0; N != Proc.numNodes(); ++N)
        if (Proc.node(N).Succs.size() >= 2)
          for (size_t I = 0; I != Proc.node(N).Succs.size(); ++I)
            Cands.emplace_back(static_cast<ProcId>(PI), N, I);
    }
    if (Idx >= Cands.size())
      break;
    Mutation M;
    M.DropEdges.insert(Cands[Idx]);
    if (tryMutation(M))
      Any = true;
    else
      ++Idx;
  }
  return Any;
}

bool Reducer::phaseMergeVars() {
  bool Any = false;
  size_t Idx = 0;
  while (budgetLeft()) {
    std::vector<Mutation> Cands;
    for (size_t PI = 0; PI != Cur->numProcs(); ++PI) {
      ProcId P = static_cast<ProcId>(PI);
      const Procedure &Proc = Cur->proc(P);
      if (Proc.vars().empty())
        continue;
      Symbol Rep = Proc.vars().front();
      for (Symbol V : Proc.vars()) {
        if (V == Rep)
          continue;
        // Params stay: renaming them would duplicate header names.
        if (std::find(Proc.params().begin(), Proc.params().end(), V) !=
            Proc.params().end())
          continue;
        Mutation M;
        M.VarRename.emplace(std::pair<ProcId, Symbol>{P, V}, Rep);
        Cands.push_back(std::move(M));
      }
    }
    if (Idx >= Cands.size())
      break;
    if (tryMutation(Cands[Idx]))
      Any = true;
    else
      ++Idx;
  }
  return Any;
}

bool Reducer::phaseMergeFields() {
  bool Any = false;
  size_t Idx = 0;
  while (budgetLeft()) {
    std::set<Symbol> Fields;
    for (size_t PI = 0; PI != Cur->numProcs(); ++PI)
      for (const CfgNode &Node :
           Cur->proc(static_cast<ProcId>(PI)).nodes())
        if (Node.Cmd.Kind == CmdKind::Load ||
            Node.Cmd.Kind == CmdKind::Store)
          Fields.insert(Node.Cmd.Field);
    if (Fields.size() < 2)
      break;
    std::vector<Symbol> Cands(std::next(Fields.begin()), Fields.end());
    if (Idx >= Cands.size())
      break;
    Mutation M;
    M.FieldRename.emplace(Cands[Idx], *Fields.begin());
    if (tryMutation(M))
      Any = true;
    else
      ++Idx;
  }
  return Any;
}

ReduceResult Reducer::run(const Program &Seed) {
  CurText = programToText(Seed);
  // Re-parse the seed so Cur is owned here and the baseline went through
  // the same print/parse pipe every candidate does.
  std::unique_ptr<Program> P;
  if (!stillFails(CurText, P)) {
    // The input does not (reproducibly) fail the target check; return it
    // unreduced rather than shrinking toward a different bug.
    ReduceResult R;
    R.Text = CurText;
    R.NumProcs = Seed.numProcs();
    R.NumStmts = countStmts(Seed);
    R.OracleRuns = OracleRuns;
    return R;
  }
  Cur = std::move(P);

  for (size_t Round = 0; Round != MaxRounds && budgetLeft(); ++Round) {
    bool Any = false;
    Any |= phaseDropProcs();
    Any |= phaseNopStmts();
    Any |= phaseDropEdges();
    Any |= phaseMergeVars();
    Any |= phaseMergeFields();
    if (!Any)
      break;
  }

  ReduceResult R;
  R.Text = CurText;
  R.NumProcs = Cur->numProcs();
  R.NumStmts = countStmts(*Cur);
  R.OracleRuns = OracleRuns;
  return R;
}

} // namespace

ReduceResult swift::difftest::reduceViolation(const Program &Prog,
                                              CheckKind Kind,
                                              const ProgramOracle &Oracle,
                                              uint64_t InterpSeed,
                                              size_t MaxRounds,
                                              size_t MaxRuns) {
  Reducer R(
      [&](const Program &Cand) {
        for (const Violation &V : Oracle(Cand, InterpSeed).Violations)
          if (V.Kind == Kind)
            return true;
        return false;
      },
      MaxRounds, MaxRuns);
  return R.run(Prog);
}
