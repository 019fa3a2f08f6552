//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "concrete/Interpreter.h"

#include "support/Rng.h"

#include <unordered_map>
#include <vector>

using namespace swift;

namespace {

/// A reference: an object, or null with its provenance bit.
struct Value {
  int Obj = -1; ///< Index into the object store; -1 is null.
  bool ExplicitNull = false;
};

struct Object {
  SiteId Site;
  const TypestateSpec *Spec; // Null for classes without a spec.
  TState T = 0;
  std::unordered_map<Symbol, Value> Fields;
};

class Interp {
public:
  Interp(const Program &Prog, const InterpConfig &Cfg)
      : Prog(Prog), Cfg(Cfg), R(Cfg.Seed) {}

  InterpResult run() {
    runProc(Prog.mainProc(), {}, 0);
    Result.Completed = !Dead;
    Result.ReachedMainExit = !Dead && !Halted;
    Result.Steps = Steps;
    Result.ObjectsAllocated = Objects.size();
    return Result;
  }

private:
  using Env = std::unordered_map<Symbol, Value>;

  static Value lookup(const Env &E, Symbol V) {
    auto It = E.find(V);
    return It == E.end() ? Value{} : It->second;
  }

  /// Assigns \p V to \p Dst at node \p N, a direct definition.
  void define(Env &E, Symbol Dst, Value V, NodeId N, unsigned Depth) {
    E[Dst] = V;
    if (Depth == 0)
      Result.MainDefs[Dst] = N;
  }

  /// A dereference of the null \p V at (\p P, \p N) terminates the run
  /// (a Java NPE).
  void derefNull(ProcId P, NodeId N, Value V) {
    if (V.ExplicitNull)
      Result.NullDeref.emplace(P, N);
    Halted = true;
  }

  /// Executes \p P with \p Args; returns the $ret value (null if none).
  Value runProc(ProcId P, const std::vector<Value> &Args, unsigned Depth) {
    if (Depth > Cfg.MaxDepth) {
      Dead = true;
      return Value{};
    }
    const Procedure &Proc = Prog.proc(P);
    Env E;
    for (size_t I = 0; I != Proc.params().size(); ++I)
      E[Proc.params()[I]] = I < Args.size() ? Args[I] : Value{};

    NodeId Cur = Proc.entry();
    while (!Dead && !Halted && Cur != Proc.exit()) {
      if (++Steps > Cfg.MaxSteps) {
        Dead = true;
        break;
      }
      const CfgNode &Node = Proc.node(Cur);
      exec(P, Node.Cmd, E, Depth);
      if (Node.Succs.empty())
        break; // Dangling dead node; treat as termination.
      if (Node.Succs.size() == 1) {
        Cur = Node.Succs[0];
      } else if (Node.Succs.size() == 2) {
        // Biased choice: loop heads continue with the configured rate.
        Cur = Node.Succs[R.below(1000) < Cfg.LoopContinuePerMille ? 0 : 1];
      } else {
        Cur = Node.Succs[R.below(Node.Succs.size())];
      }
    }
    return lookup(E, Prog.retVar());
  }

  void exec(ProcId P, const Command &C, Env &E, unsigned Depth) {
    switch (C.Kind) {
    case CmdKind::Nop:
      return;

    case CmdKind::Alloc: {
      int O = static_cast<int>(Objects.size());
      Objects.push_back(
          Object{C.Site, Prog.specFor(C.Class),
                 Prog.specFor(C.Class) ? Prog.specFor(C.Class)->initState()
                                       : TState(0),
                 {}});
      define(E, C.Dst, Value{O, false}, C.Self, Depth);
      return;
    }

    case CmdKind::Copy:
      define(E, C.Dst, lookup(E, C.Src), C.Self, Depth);
      return;

    case CmdKind::AssignNull:
      define(E, C.Dst, Value{-1, true}, C.Self, Depth);
      return;

    case CmdKind::Load: {
      Value Base = lookup(E, C.Src);
      if (Base.Obj < 0)
        return derefNull(P, C.Self, Base);
      auto It = Objects[Base.Obj].Fields.find(C.Field);
      define(E, C.Dst,
             It == Objects[Base.Obj].Fields.end() ? Value{} : It->second,
             C.Self, Depth);
      return;
    }

    case CmdKind::Store: {
      Value Base = lookup(E, C.Dst);
      if (Base.Obj < 0)
        return derefNull(P, C.Self, Base);
      Objects[Base.Obj].Fields[C.Field] = lookup(E, C.Src);
      Result.Stores.emplace(P, C.Self);
      return;
    }

    case CmdKind::TsCall: {
      Value Recv = lookup(E, C.Src);
      if (Recv.Obj < 0)
        return derefNull(P, C.Self, Recv);
      Object &O = Objects[Recv.Obj];
      Result.Calls.emplace(P, C.Self, O.Site);
      if (!O.Spec || !O.Spec->hasMethod(C.Method))
        return; // Foreign method: no typestate effect.
      TState Err = O.Spec->errorState();
      if (O.T == Err)
        return; // Error is absorbing.
      TState Next = O.Spec->apply(C.Method, O.T);
      if (Next == Err)
        Result.ErrorSites.insert(O.Site);
      O.T = Next;
      return;
    }

    case CmdKind::Call: {
      std::vector<Value> Args;
      Args.reserve(C.Args.size());
      for (Symbol A : C.Args)
        Args.push_back(lookup(E, A));
      Value Ret = runProc(C.Callee, Args, Depth + 1);
      if (C.Dst.isValid()) {
        E[C.Dst] = Ret;
        if (Depth == 0)
          Result.MainDefs.erase(C.Dst);
      }
      return;
    }
    }
  }

  const Program &Prog;
  const InterpConfig &Cfg;
  Rng R;
  InterpResult Result;
  std::vector<Object> Objects;
  uint64_t Steps = 0;
  bool Dead = false;
  bool Halted = false; ///< Normal early termination (null dereference).
};

} // namespace

InterpResult swift::interpret(const Program &Prog, const InterpConfig &Cfg) {
  return Interp(Prog, Cfg).run();
}
