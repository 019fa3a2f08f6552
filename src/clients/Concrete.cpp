//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "clients/Concrete.h"

#include "clients/Registry.h"
#include "clients/interval/IntervalDomain.h"
#include "concrete/Interpreter.h"
#include "support/Rng.h"

#include <stdexcept>
#include <unordered_map>
#include <vector>

using namespace swift;
using namespace swift::clients;

namespace {

//===----------------------------------------------------------------------===//
// Reference machine: taint, null-deref, reaching-defs
//===----------------------------------------------------------------------===//

/// A reference value: an object index, or null with an explicit-assignment
/// provenance bit (x = null and values copied from it).
struct RefVal {
  int Obj = -1; ///< Index into the object store; -1 is null.
  bool NullProv = false;
};

struct RefObj {
  bool Tainted = false;
  std::unordered_map<Symbol, RefVal> Fields;
};

class RefMachine {
public:
  RefMachine(const Program &Prog, const WitnessConfig &Cfg,
             const std::set<Symbol> &Sources, const std::set<Symbol> &Sinks)
      : Prog(Prog), Cfg(Cfg), Sources(Sources), Sinks(Sinks), R(Cfg.Seed) {}

  void run() {
    MainDefs = runProc(Prog.mainProc(), {}, 0).second;
    Completed = !Dead;
    ReachedExit = !Dead && !Halted;
  }

  const Program &Prog;
  const WitnessConfig &Cfg;
  const std::set<Symbol> &Sources;
  const std::set<Symbol> &Sinks;
  Rng R;

  std::set<std::pair<ProcId, NodeId>> TaintEvents;
  std::set<std::pair<ProcId, NodeId>> DerefEvents;
  /// Store sites that executed successfully (non-null base), per run.
  std::set<std::pair<ProcId, NodeId>> StoreSites;
  /// Latest direct-def site per variable of main's frame.
  std::unordered_map<Symbol, NodeId> MainDefs;
  uint64_t Steps = 0;
  bool Completed = false;
  bool ReachedExit = false;

private:
  using Env = std::unordered_map<Symbol, RefVal>;
  using Defs = std::unordered_map<Symbol, NodeId>;

  static RefVal lookup(const Env &E, Symbol V) {
    auto It = E.find(V);
    return It == E.end() ? RefVal{} : It->second;
  }

  /// A dereference of null: record a deref event when the null was
  /// explicitly assigned, then halt the run (Java-NPE semantics, exactly
  /// like concrete/Interpreter.cpp).
  void derefNull(ProcId P, NodeId N, const RefVal &V) {
    if (V.NullProv)
      DerefEvents.insert({P, N});
    Halted = true;
  }

  /// Executes \p P; returns ($ret value, final frame def sites).
  std::pair<RefVal, Defs> runProc(ProcId P, const std::vector<RefVal> &Args,
                                  unsigned Depth) {
    Env E;
    Defs D;
    if (Depth > Cfg.MaxDepth) {
      Dead = true;
      return {RefVal{}, D};
    }
    const Procedure &Proc = Prog.proc(P);
    for (size_t I = 0; I != Proc.params().size(); ++I)
      E[Proc.params()[I]] = I < Args.size() ? Args[I] : RefVal{};

    NodeId Cur = Proc.entry();
    while (!Dead && !Halted && Cur != Proc.exit()) {
      if (++Steps > Cfg.MaxSteps) {
        Dead = true;
        break;
      }
      const CfgNode &Node = Proc.node(Cur);
      exec(P, Node.Cmd, E, D, Depth);
      if (Node.Succs.empty())
        break;
      if (Node.Succs.size() == 1)
        Cur = Node.Succs[0];
      else if (Node.Succs.size() == 2)
        Cur = Node.Succs[R.below(1000) < Cfg.LoopContinuePerMille ? 0 : 1];
      else
        Cur = Node.Succs[R.below(Node.Succs.size())];
    }
    return {lookup(E, Prog.retVar()), std::move(D)};
  }

  void exec(ProcId P, const Command &C, Env &E, Defs &D, unsigned Depth) {
    switch (C.Kind) {
    case CmdKind::Nop:
      return;

    case CmdKind::Alloc: {
      int O = static_cast<int>(Objects.size());
      Objects.push_back(RefObj{Sources.count(C.Class) != 0, {}});
      E[C.Dst] = RefVal{O, false};
      D[C.Dst] = C.Self;
      return;
    }

    case CmdKind::Copy:
      E[C.Dst] = lookup(E, C.Src);
      D[C.Dst] = C.Self;
      return;

    case CmdKind::AssignNull:
      E[C.Dst] = RefVal{-1, true};
      D[C.Dst] = C.Self;
      return;

    case CmdKind::Load: {
      RefVal Base = lookup(E, C.Src);
      if (Base.Obj < 0)
        return derefNull(P, C.Self, Base);
      auto It = Objects[Base.Obj].Fields.find(C.Field);
      E[C.Dst] =
          It == Objects[Base.Obj].Fields.end() ? RefVal{} : It->second;
      D[C.Dst] = C.Self;
      return;
    }

    case CmdKind::Store: {
      RefVal Base = lookup(E, C.Dst);
      if (Base.Obj < 0)
        return derefNull(P, C.Self, Base);
      Objects[Base.Obj].Fields[C.Field] = lookup(E, C.Src);
      StoreSites.insert({P, C.Self});
      return;
    }

    case CmdKind::TsCall: {
      RefVal Recv = lookup(E, C.Src);
      if (Recv.Obj < 0)
        return derefNull(P, C.Self, Recv);
      if (Sinks.count(C.Method) && Objects[Recv.Obj].Tainted)
        TaintEvents.insert({P, C.Self});
      return;
    }

    case CmdKind::Call: {
      std::vector<RefVal> Args;
      Args.reserve(C.Args.size());
      for (Symbol A : C.Args)
        Args.push_back(lookup(E, A));
      RefVal Ret = runProc(C.Callee, Args, Depth + 1).first;
      if (C.Dst.isValid()) {
        E[C.Dst] = Ret;
        D.erase(C.Dst); // A call untracks its result's direct defs.
      }
      return;
    }
    }
  }

  std::vector<RefObj> Objects;
  bool Dead = false;
  bool Halted = false;
};

//===----------------------------------------------------------------------===//
// Counter machine: interval
//===----------------------------------------------------------------------===//

/// A counter value: null, or a saturating counter (sentinels included).
struct IntVal {
  bool Null = true;
  int C = 0;
};

class IntMachine {
public:
  IntMachine(const Program &Prog, const WitnessConfig &Cfg)
      : Prog(Prog), Cfg(Cfg), R(Cfg.Seed) {
    // Same method classification as IvContext: by name text.
    const SymbolTable &Syms = Prog.symbols();
    for (uint32_t I = 1; I <= Syms.size(); ++I) {
      Symbol S(I);
      const std::string &Name = Syms.text(S);
      if (Name == "open")
        Ops[S] = interval::MethodOp::Inc;
      else if (Name == "close")
        Ops[S] = interval::MethodOp::Dec;
      else if (Name == "reset")
        Ops[S] = interval::MethodOp::Reset;
    }
  }

  void run() {
    MainEnv = runProc(Prog.mainProc(), {}, 0).second;
    Completed = !Dead;
    ReachedExit = Completed; // The counter machine never halts early.
  }

  const Program &Prog;
  const WitnessConfig &Cfg;
  Rng R;

  std::set<std::pair<ProcId, NodeId>> UnderEvents;
  std::unordered_map<Symbol, IntVal> MainEnv;    ///< Main's final frame.
  std::unordered_map<Symbol, IntVal> FieldStore; ///< Global, by field.
  uint64_t Steps = 0;
  bool Completed = false;
  bool ReachedExit = false;

private:
  using Env = std::unordered_map<Symbol, IntVal>;

  static IntVal lookup(const Env &E, Symbol V) {
    auto It = E.find(V);
    return It == E.end() ? IntVal{} : It->second;
  }

  std::pair<IntVal, Env> runProc(ProcId P, const std::vector<IntVal> &Args,
                                 unsigned Depth) {
    Env E;
    if (Depth > Cfg.MaxDepth) {
      Dead = true;
      return {IntVal{}, E};
    }
    const Procedure &Proc = Prog.proc(P);
    for (size_t I = 0; I != Proc.params().size(); ++I)
      E[Proc.params()[I]] = I < Args.size() ? Args[I] : IntVal{};

    NodeId Cur = Proc.entry();
    while (!Dead && Cur != Proc.exit()) {
      if (++Steps > Cfg.MaxSteps) {
        Dead = true;
        break;
      }
      const CfgNode &Node = Proc.node(Cur);
      exec(P, Node.Cmd, E, Depth);
      if (Node.Succs.empty())
        break;
      if (Node.Succs.size() == 1)
        Cur = Node.Succs[0];
      else if (Node.Succs.size() == 2)
        Cur = Node.Succs[R.below(1000) < Cfg.LoopContinuePerMille ? 0 : 1];
      else
        Cur = Node.Succs[R.below(Node.Succs.size())];
    }
    IntVal Ret = lookup(E, Prog.retVar());
    return {Ret, std::move(E)};
  }

  void exec(ProcId P, const Command &C, Env &E, unsigned Depth) {
    switch (C.Kind) {
    case CmdKind::Nop:
      return;
    case CmdKind::Alloc:
      E[C.Dst] = IntVal{false, 0}; // Births a counter at zero.
      return;
    case CmdKind::Copy:
      E[C.Dst] = lookup(E, C.Src);
      return;
    case CmdKind::AssignNull:
      E[C.Dst] = IntVal{};
      return;
    case CmdKind::Load:
      // Fields are a global, field-indexed store; the base is irrelevant
      // (see IntervalDomain.h's concretization).
      E[C.Dst] = lookup(FieldStore, C.Field);
      return;
    case CmdKind::Store:
      FieldStore[C.Field] = lookup(E, C.Src);
      return;
    case CmdKind::TsCall: {
      IntVal Recv = lookup(E, C.Src);
      if (Recv.Null)
        return; // Methods on null are no-ops in the counter language.
      auto It = Ops.find(C.Method);
      interval::MethodOp Op =
          It == Ops.end() ? interval::MethodOp::Nop : It->second;
      switch (Op) {
      case interval::MethodOp::Inc:
        Recv.C = interval::satAdd(Recv.C, 1);
        break;
      case interval::MethodOp::Dec:
        if (Recv.C <= 0) // NEG is <= 0; POS is not.
          UnderEvents.insert({P, C.Self});
        Recv.C = interval::satAdd(Recv.C, -1);
        break;
      case interval::MethodOp::Reset:
        Recv.C = 0;
        break;
      case interval::MethodOp::Nop:
        return;
      }
      E[C.Src] = Recv;
      return;
    }
    case CmdKind::Call: {
      std::vector<IntVal> Args;
      Args.reserve(C.Args.size());
      for (Symbol A : C.Args)
        Args.push_back(lookup(E, A)); // Counters pass by value.
      IntVal Ret = runProc(C.Callee, Args, Depth + 1).first;
      if (C.Dst.isValid())
        E[C.Dst] = Ret;
      return;
    }
    }
  }

  std::unordered_map<Symbol, interval::MethodOp> Ops;
  bool Dead = false;
};

std::string defFactText(const Program &Prog, Symbol Var, bool IsField,
                        ProcId P, NodeId N) {
  const SymbolTable &Syms = Prog.symbols();
  return "def(" + std::string(IsField ? "*." : "") + Syms.text(Var) + "@" +
         Syms.text(Prog.proc(P).name()) + ":" + std::to_string(N) + ")";
}

} // namespace

WitnessResult clients::runClientWitness(const std::string &Domain,
                                        const Program &Prog,
                                        const WitnessConfig &Cfg) {
  WitnessResult W;

  if (Domain == "typestate") {
    InterpConfig IC;
    IC.Seed = Cfg.Seed;
    IC.MaxSteps = Cfg.MaxSteps;
    IC.MaxDepth = Cfg.MaxDepth;
    IC.LoopContinuePerMille = Cfg.LoopContinuePerMille;
    InterpResult IR = interpret(Prog, IC);
    for (SiteId S : IR.ErrorSites)
      W.Events.insert({Prog.site(S).Proc, Prog.site(S).Node});
    W.Completed = IR.Completed;
    W.Steps = IR.Steps;
    return W;
  }

  if (Domain == "interval") {
    IntMachine M(Prog, Cfg);
    M.run();
    W.Events = std::move(M.UnderEvents);
    W.Completed = M.Completed;
    W.Steps = M.Steps;
    W.ExitFactsValid = M.ReachedExit;
    if (W.ExitFactsValid) {
      for (const auto &[V, Val] : M.MainEnv)
        if (!Val.Null)
          W.ExitFacts.insert(
              interval::IvFact::num(interval::IvKey::var(V),
                                    interval::Interval::point(Val.C))
                  .str(Prog));
      for (const auto &[F, Val] : M.FieldStore)
        if (!Val.Null)
          W.ExitFacts.insert(
              interval::IvFact::num(interval::IvKey::field(F),
                                    interval::Interval::point(Val.C))
                  .str(Prog));
    }
    return W;
  }

  if (Domain != "taint" && Domain != "nullderef" && Domain != "reachdefs")
    throw std::runtime_error("unknown witness domain '" + Domain + "'");

  std::set<Symbol> Sources = taintSourceClasses(Prog);
  std::set<Symbol> Sinks = taintSinkMethods(Prog);
  RefMachine M(Prog, Cfg, Sources, Sinks);
  M.run();
  W.Completed = M.Completed;
  W.Steps = M.Steps;

  if (Domain == "taint") {
    W.Events = std::move(M.TaintEvents);
  } else if (Domain == "nullderef") {
    W.Events = std::move(M.DerefEvents);
  } else { // reachdefs: no reports; main-exit def facts instead.
    W.ExitFactsValid = M.ReachedExit;
    if (W.ExitFactsValid) {
      for (const auto &[V, N] : M.MainDefs)
        W.ExitFacts.insert(
            defFactText(Prog, V, false, Prog.mainProc(), N));
      for (const auto &[P, N] : M.StoreSites)
        W.ExitFacts.insert(defFactText(
            Prog, Prog.proc(P).node(N).Cmd.Field, true, P, N));
    }
  }
  return W;
}
