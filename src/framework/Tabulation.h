//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SWIFT algorithm (the paper's Algorithm 1): a summary-based top-down
/// tabulation solver (Reps-Horwitz-Sagiv style) that, when the number of
/// distinct incoming abstract states of a procedure exceeds the threshold
/// k, triggers the pruned bottom-up analysis on the procedures reachable
/// from it and thereafter serves call sites from bottom-up summaries
/// whenever the incoming state is not in the summary's ignore set.
///
/// Summaries are reused across triggers. Algorithm 1's run_bu summarizes
/// the whole callee closure; here a trigger solves only the part of the
/// closure that no earlier trigger summarized and hands the solver the
/// installed summaries of the rest, which Theorem 3.1 makes safe to keep
/// behind their Sigma guards. Reuse alone would pin a summary pruned under
/// an early frequency snapshot, so each summary may be refreshed once:
/// when its Sigma has refused more than k distinct entry states, and more
/// than RefreshRefusalRatio times as many as it served, its SCC is
/// re-solved with the current frequencies (reusing its callees) and
/// replaces the old summaries. Degraded summaries refuse every entry by
/// construction and are never refreshed.
///
/// With k = infinity this is exactly the conventional top-down analysis
/// (the TD baseline).
///
/// Facts are pairs (entry state, current state) per program point — the
/// paper's td map. A "top-down summary" is an (entry, exit) pair of a
/// procedure, matching the paper's counting.
///
/// Data layout (the hot-path rewrite): every abstract state is interned
/// once into a dense-id arena (States) indexed by an open-addressing
/// HashIndex keyed on a cached 64-bit state hash; all solver tables key
/// on the 32-bit ids, never on state values. Path-edge sets, summaries,
/// dependents, incoming multisets, and the observation set are flat
/// open-addressing tables (support/FlatHash.h) over contiguous row
/// vectors — no per-entry node allocations, and snapshot/iteration walk
/// the rows linearly. EverCalled is a packed bit vector.
///
/// On top of the id layout the solver memoizes the pure per-call-site
/// analysis functions, which the tabulation loop otherwise re-evaluates
/// once per path edge sharing the same current state:
///   * transfer outs per (proc, node, cur-state id),
///   * enter results per (call site, cur-state id),
///   * combine results per (call site, frame id, exit id),
///   * bottom-up serve decisions and outputs per (callee, entry id) —
///     this batches the Sigma guard and the applyRel sweep that every
///     wavefront of callers to the same callee entry would repeat; each
///     row carries the stamp of the callee summary it was computed
///     against, so installing a summary invalidates only its own rows.
/// All memo hits replay the exact id sequence the first evaluation
/// produced, so worklist order, budget step counts, and every reported
/// fact are identical to the unmemoized solver's.
///
/// Concurrency (the paper's Section 7 sketch, inside one trigger): every
/// triggered bottom-up run is a synchronous RelationalSolver solve that
/// draws from the same budget as the top-down loop, so a hybrid run costs
/// at most the cap of the baselines it is compared against. The solve
/// itself parallelizes over the call-graph SCC DAG with Config::BuThreads
/// workers (see RelationalSolver); the workers read only immutable
/// analysis state, copies of the installed callee summaries and a
/// materialized frequency snapshot, while the interner and memo tables
/// stay on the top-down thread.
///
/// Resource governance (Config::Gov): an attached ResourceGovernor turns
/// the binary run/abort model into staged degradation. The top-down loop
/// polls the governor between worklist pops and charges it for every
/// interned state and path edge; under Yellow pressure newly triggered
/// bottom-up runs halve theta, and under Red no bottom-up runs start and
/// installed summary caches are shed. All of it is sound: serving is
/// always guarded by Sigma, and the top-down route is always available
/// (Theorem 3.1). A bottom-up solve in flight stops only when the shared
/// budget does. Budget consumption is attributed per phase in Stats
/// (budget.td_steps / budget.sync_bu_steps) so a timeout report says where
/// the budget went.
///
/// Observability (src/obs): when tracing is enabled the solver emits a
/// "td.run" span, a "bu.sync" span per bottom-up run, per-procedure
/// "bu.serve"/"bu.fallback"/"bu.install" instants, "swift.k_trip" trigger
/// and "swift.refresh" instants, "gov.shed" instants, and a periodic
/// "td.path_edges" counter track. Every site is a single relaxed atomic
/// load when tracing is off.
///
/// snapshot()/restore() capture and re-seed the solver's mutable state
/// for checkpoint/resume of budget-limited runs; see TabSnapshot.h for
/// the exactness guarantees. Memo tables are pure caches and are
/// intentionally not part of the snapshot: a resumed run refills them.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_FRAMEWORK_TABULATION_H
#define SWIFT_FRAMEWORK_TABULATION_H

#include "framework/RelationalSolver.h"
#include "framework/TabSnapshot.h"
#include "govern/Governor.h"
#include "ir/CallGraph.h"
#include "ir/Program.h"
#include "obs/Trace.h"
#include "support/FlatHash.h"
#include "support/Hashing.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace swift {

inline constexpr uint64_t NoBuTrigger = UINT64_MAX;

/// An installed summary is refreshed once when the distinct entry states
/// its Sigma refused exceed k and this many times those it served (see
/// TabulationSolver::refreshDue; EXPERIMENTS.md records the sweep).
inline constexpr uint64_t RefreshRefusalRatio = 8;

template <typename AN> class TabulationSolver {
public:
  using Context = typename AN::Context;
  using State = typename AN::State;
  using Rel = typename AN::Rel;
  using Ignore = typename AN::Ignore;
  using Binding = typename AN::Binding;
  using SummaryView = typename AN::SummaryView;
  using BuSummary = typename RelationalSolver<AN>::Summary;
  using Snapshot = TabSnapshot<State>;

  struct Config {
    uint64_t K = NoBuTrigger; ///< Trigger threshold; NoBuTrigger = pure TD.
    uint64_t Theta = 1;       ///< Cases kept by the pruned bottom-up run.
    /// Worker threads inside each bottom-up solve (SCC-DAG wavefront);
    /// 1 = the sequential callee-first sweep. Summaries are identical for
    /// every value.
    unsigned BuThreads = 1;
    /// Optional resource governor (see file comment). Must outlive the
    /// solver; its Budget should be the one passed to the constructor so
    /// pressure fractions describe the budget actually being consumed.
    ResourceGovernor *Gov = nullptr;
  };

  TabulationSolver(const Context &Ctx, const Program &Prog,
                   const CallGraph &CG, Config Cfg, Budget &B, Stats &S)
      : Ctx(Ctx), Prog(Prog), CG(CG), Cfg(Cfg), Bud(B), Stat(S) {
    size_t N = Prog.numProcs();
    Edges.resize(N);
    Summaries.resize(N);
    Dependents.resize(N);
    Incoming.resize(N);
    EverCalled.assign(N, false);
    Bu.resize(N);
    BuUses.resize(N);
  }

  /// Runs to fixpoint from the root procedure's Lambda fact. Returns false
  /// if the budget was exhausted (results are then partial). Partial
  /// facts are sound: tabulation only accumulates, so every path edge,
  /// summary, and observation present at exhaustion is present in the
  /// full fixpoint too.
  bool run() {
    obs::TraceSpan RunSpan("td", "td.run");
    ProcId Main = Prog.mainProc();
    EverCalled.set(Main);
    propagate(Main, Prog.proc(Main).entry(), intern(AN::lambda()),
              intern(AN::lambda()));

    while (!Work.empty()) {
      if (!Bud.step())
        return false;
      ++Stat.counter(CtrTdSteps);
      if (Cfg.Gov)
        governPoll();
      auto [P, E] = Work.back();
      Work.pop_back();
      process(P, E);
    }
    return true;
  }

  //===--------------------------------------------------------------------===
  // Checkpoint / resume
  //===--------------------------------------------------------------------===

  /// Captures the solver's mutable state. Callable once run() has
  /// returned; bottom-up caches and memo tables are intentionally dropped
  /// (see TabSnapshot.h).
  Snapshot snapshot() const {
    Snapshot S;
    S.States = States;

    for (ProcId P = 0; P != Prog.numProcs(); ++P)
      for (const Edge &E : Edges[P].Rows)
        S.Edges.push_back({P, E.Node, E.Entry, E.Cur});
    std::sort(S.Edges.begin(), S.Edges.end());

    S.Work.reserve(Work.size());
    for (const auto &[P, E] : Work)
      S.Work.push_back({P, E.Node, E.Entry, E.Cur});

    for (ProcId P = 0; P != Prog.numProcs(); ++P) {
      std::vector<typename Snapshot::SummaryRow> Rows;
      Summaries[P].forEach(
          [&](uint32_t Entry, const std::vector<uint32_t> &Exits) {
            Rows.push_back({P, Entry, Exits});
          });
      std::sort(Rows.begin(), Rows.end(),
                [](const auto &A, const auto &B) {
                  return A.Entry < B.Entry;
                });
      for (auto &R : Rows)
        S.Summaries.push_back(std::move(R));
    }

    // Rows with the same (callee, entry) key keep their registration
    // order — recordSummary resumes waiting callers in that order.
    for (ProcId G = 0; G != Prog.numProcs(); ++G) {
      std::vector<uint32_t> Keys = Dependents[G].keys();
      std::sort(Keys.begin(), Keys.end());
      for (uint32_t Entry : Keys)
        for (const Caller &C : *Dependents[G].find(Entry))
          S.Dependents.push_back({G, Entry, C.P, C.Node, C.Entry, C.Frame});
    }

    for (ProcId P = 0; P != Prog.numProcs(); ++P) {
      std::vector<typename Snapshot::IncomingRow> Rows;
      Incoming[P].forEach([&](uint32_t Entry, uint64_t Count) {
        Rows.push_back({P, Entry, Count});
      });
      std::sort(Rows.begin(), Rows.end(),
                [](const auto &A, const auto &B) {
                  return A.Entry < B.Entry;
                });
      for (auto &R : Rows)
        S.Incoming.push_back(std::move(R));
    }

    S.EverCalled.reserve(EverCalled.size());
    for (size_t P = 0; P != EverCalled.size(); ++P)
      S.EverCalled.push_back(EverCalled.get(P) ? 1 : 0);

    // The flat observation table keeps insertion order; checkpoints store
    // the rows sorted (the historical std::set iteration order), so a
    // resumed run snapshots byte-identically to an uninterrupted one.
    for (const ObsRow &O : ObservedRows)
      S.Observed.push_back({O.P, O.Node, O.StateId});
    std::sort(S.Observed.begin(), S.Observed.end(),
              [](const auto &A, const auto &B) {
                if (A.Proc != B.Proc)
                  return A.Proc < B.Proc;
                if (A.Node != B.Node)
                  return A.Node < B.Node;
                return A.StateId < B.StateId;
              });
    return S;
  }

  /// Re-seeds a *fresh* solver (same program, same analysis) from \p S.
  /// Call before run(); run() then continues exactly where the
  /// checkpointed run stopped (its initial Lambda propagation dedups
  /// against the restored path-edge table).
  void restore(const Snapshot &S) {
    assert(States.empty() && Work.empty() && "restore into a fresh solver");
    States = S.States;
    StateIndex.clear();
    StateIndex.reserve(States.size());
    for (uint32_t I = 0; I != States.size(); ++I)
      StateIndex.insert(stateHash(States[I]), I);
    for (const auto &E : S.Edges) {
      assert(E.Proc < Edges.size());
      insertEdge(E.Proc, Edge{E.Node, E.Entry, E.Cur});
    }
    for (const auto &W : S.Work)
      Work.push_back({W.Proc, Edge{W.Node, W.Entry, W.Cur}});
    for (const auto &Row : S.Summaries)
      Summaries[Row.Proc].getOrCreate(Row.Entry) = Row.Exits;
    for (const auto &D : S.Dependents)
      Dependents[D.Callee].getOrCreate(D.Entry).push_back(
          Caller{D.CallerProc, D.CallNode, D.CallerEntry, D.Frame});
    for (const auto &I : S.Incoming)
      Incoming[I.Proc].getOrCreate(I.Entry) = I.Count;
    for (size_t P = 0; P != EverCalled.size() && P != S.EverCalled.size();
         ++P)
      if (S.EverCalled[P] != 0)
        EverCalled.set(P);
    for (const auto &O : S.Observed)
      observedInsert(O.Proc, O.Node, O.StateId);
  }

  //===--------------------------------------------------------------------===
  // Results
  //===--------------------------------------------------------------------===

  const State &state(uint32_t Id) const { return States[Id]; }

  /// Number of (entry, exit) top-down summary pairs of procedure \p P.
  /// The trivial Lambda -> Lambda pair every procedure has is excluded so
  /// counts line up with the paper's (which has no Lambda fact).
  uint64_t numTdSummaries(ProcId P) const {
    uint64_t N = 0;
    Summaries[P].forEach(
        [&](uint32_t, const std::vector<uint32_t> &Exits) {
          for (uint32_t X : Exits)
            if (!AN::isLambda(States[X]))
              ++N;
        });
    return N;
  }

  /// numTdSummaries of every procedure, indexed by ProcId.
  std::vector<uint64_t> tdSummariesPerProc() const {
    std::vector<uint64_t> N(Prog.numProcs());
    for (ProcId P = 0; P != Prog.numProcs(); ++P)
      N[P] = numTdSummaries(P);
    return N;
  }

  /// Number of distinct non-Lambda incoming abstract states of \p P.
  uint64_t numIncoming(ProcId P) const { return Incoming[P].size(); }

  uint64_t totalBuRelations() const {
    uint64_t N = 0;
    for (const auto &B : Bu)
      if (B)
        N += B->Rels.size();
    return N;
  }

  bool buDefined(ProcId P) const { return Bu[P].has_value(); }
  const BuSummary &buSummary(ProcId P) const { return *Bu[P]; }

  /// The governor memory charge of one installed bottom-up summary.
  static uint64_t buSummaryBytes(const BuSummary &S) {
    return (S.Rels.size() + S.ObsRels.size() + 1) * (sizeof(Rel) + 16);
  }

  /// What the installed bottom-up summaries are charged to the governor
  /// (0 without one): buSummaryBytes summed over them.
  uint64_t buChargedBytes() const {
    uint64_t N = 0;
    for (const BuUse &U : BuUses)
      N += U.GovBytes;
    return N;
  }

  /// Visits every computed fact (td map entry): (proc, node, entry state,
  /// current state).
  template <typename Fn> void forEachFact(Fn F) const {
    for (ProcId P = 0; P != Prog.numProcs(); ++P)
      for (const Edge &E : Edges[P].Rows)
        F(P, E.Node, States[E.Entry], States[E.Cur]);
  }

  /// Visits every (entry, exit) summary pair of \p P.
  template <typename Fn> void forEachSummary(ProcId P, Fn F) const {
    Summaries[P].forEach(
        [&](uint32_t E, const std::vector<uint32_t> &Exits) {
          for (uint32_t X : Exits)
            F(States[E], States[X]);
        });
  }

  /// Visits every observable state reported through a bottom-up summary's
  /// observation manifest: (caller proc, call node, state).
  template <typename Fn> void forEachObserved(Fn F) const {
    for (const ObsRow &O : ObservedRows)
      F(O.P, O.Node, States[O.StateId]);
  }

private:
  struct Edge {
    NodeId Node;
    uint32_t Entry;
    uint32_t Cur;
    friend bool operator==(const Edge &A, const Edge &B) {
      return A.Node == B.Node && A.Entry == B.Entry && A.Cur == B.Cur;
    }
  };
  /// Full-width mixing of all three fields. Shift-xor packing (the
  /// previous scheme) aliased once state ids passed 2^20, collapsing the
  /// path-edge set to near-linear probing on large configs.
  static uint64_t edgeHash(const Edge &E) {
    return hashCombine(hashCombine(mix64(E.Node), E.Entry), E.Cur);
  }
  /// Path edges of one procedure: dense insertion-order rows plus an
  /// open-addressing dedup index over them.
  struct EdgeTab {
    std::vector<Edge> Rows;
    HashIndex Idx;
  };
  struct Caller {
    ProcId P;
    NodeId Node;
    uint32_t Entry; ///< Caller's own entry-state id.
    uint32_t Frame; ///< Caller's state at the call site.
  };
  struct ObsRow {
    ProcId P;
    NodeId Node;
    uint32_t StateId;
  };

  /// Per-state footprint for the governor's memory estimate; analyses
  /// with out-of-line storage provide AN::stateBytes, others fall back to
  /// the object size.
  static uint64_t approxStateBytes(const State &S) {
    if constexpr (requires { AN::stateBytes(S); })
      return AN::stateBytes(S);
    else
      return sizeof(State);
  }

  /// 64-bit hash of a state; analyses that cache a hash at construction
  /// expose it through AN::stateHash, others pay the std::hash walk.
  static uint64_t stateHash(const State &S) {
    if constexpr (requires { AN::stateHash(S); })
      return AN::stateHash(S);
    else
      return static_cast<uint64_t>(std::hash<State>{}(S));
  }

  uint32_t intern(const State &S) {
    uint64_t H = stateHash(S);
    auto [Id, Inserted] = StateIndex.findOrInsert(
        H, static_cast<uint32_t>(States.size()),
        [&](uint32_t I) { return States[I] == S; });
    if (Inserted) {
      States.push_back(S);
      if (Cfg.Gov)
        Cfg.Gov->charge(approxStateBytes(S) + 4 * sizeof(void *));
    }
    return Id;
  }

  /// Dedups \p E into \p P's path-edge table; true when newly inserted.
  bool insertEdge(ProcId P, const Edge &E) {
    EdgeTab &T = Edges[P];
    auto [Row, Inserted] = T.Idx.findOrInsert(
        edgeHash(E), static_cast<uint32_t>(T.Rows.size()),
        [&](uint32_t I) { return T.Rows[I] == E; });
    (void)Row;
    if (Inserted)
      T.Rows.push_back(E);
    return Inserted;
  }

  void propagate(ProcId P, NodeId N, uint32_t Entry, uint32_t Cur) {
    Edge E{N, Entry, Cur};
    if (!insertEdge(P, E))
      return;
    uint64_t NEdges = ++Stat.counter(CtrPathEdges);
    // Path-edge growth curve, sampled sparsely to keep the innermost
    // propagation free of per-edge trace events.
    if (obs::tracingEnabled() && (NEdges & 1023) == 0)
      obs::counterEvent("td.path_edges", "edges", NEdges);
    // Hash-set node plus the worklist entry, roughly.
    if (Cfg.Gov)
      Cfg.Gov->charge(3 * sizeof(Edge));
    Work.push_back({P, E});
  }

  /// A call-site binding plus its dense site id (the memo key for the
  /// per-site enter/combine caches).
  struct BoundSite {
    const Binding &B;
    uint32_t Site;
  };

  BoundSite binding(ProcId P, NodeId N, const Command &Cmd) {
    uint64_t Key = (static_cast<uint64_t>(P) << 32) | N;
    uint64_t H = mix64(Key);
    uint32_t Id = BindingIdx.find(
        H, [&](uint32_t I) { return BindingKeys[I] == Key; });
    if (Id == HashIndex::Npos) {
      Id = static_cast<uint32_t>(BindingKeys.size());
      BindingIdx.insert(H, Id);
      BindingKeys.push_back(Key);
      // Deque: stable references while new sites are bound.
      BindingArena.emplace_back(AN::makeBinding(Ctx, P, Cmd));
    }
    return {BindingArena[Id], Id};
  }

  std::vector<State> combineDispatch(const Binding &B, const State &Frame,
                                     const State &Exit) {
    if (AN::isLambda(Frame)) {
      if (AN::isLambda(Exit))
        return {Exit};
      return AN::combineFresh(B, Exit);
    }
    assert(!AN::isLambda(Exit) &&
           "non-Lambda entries never reach a Lambda exit");
    return AN::combine(B, Frame, Exit);
  }

  //===--------------------------------------------------------------------===
  // Memo tables (pure caches over interned ids; never snapshotted)
  //===--------------------------------------------------------------------===

  struct MemoKey {
    uint32_t A, B, C;
  };
  /// Key triple -> (begin, count) slice into MemoPool.
  struct MemoTab {
    HashIndex Idx;
    std::vector<MemoKey> Keys;
    std::vector<std::pair<uint32_t, uint32_t>> Slices;
  };

  static uint64_t memoHash(MemoKey K) {
    return hashCombine(hashCombine(mix64(K.A), K.B), K.C);
  }

  uint32_t memoFind(const MemoTab &T, MemoKey K) const {
    return T.Idx.find(memoHash(K), [&](uint32_t I) {
      return T.Keys[I].A == K.A && T.Keys[I].B == K.B && T.Keys[I].C == K.C;
    });
  }

  uint32_t memoAdd(MemoTab &T, MemoKey K, const std::vector<uint32_t> &Ids) {
    uint32_t Row = static_cast<uint32_t>(T.Keys.size());
    T.Idx.insert(memoHash(K), Row);
    T.Keys.push_back(K);
    T.Slices.push_back({static_cast<uint32_t>(MemoPool.size()),
                        static_cast<uint32_t>(Ids.size())});
    MemoPool.insert(MemoPool.end(), Ids.begin(), Ids.end());
    return Row;
  }

  void process(ProcId P, const Edge &E) {
    const Procedure &Proc = Prog.proc(P);

    if (E.Node == Proc.exit()) {
      recordSummary(P, E.Entry, E.Cur);
      return;
    }

    const CfgNode &Node = Proc.node(E.Node);
    if (Node.Cmd.Kind == CmdKind::Call) {
      processCall(P, E, Node);
      return;
    }

    // Transfer depends only on (node, current state); path edges that
    // share both replay the interned out ids without re-running it.
    MemoKey K{P, E.Node, E.Cur};
    uint32_t Row = memoFind(TransferMemo, K);
    if (Row == HashIndex::Npos) {
      std::vector<uint32_t> Out;
      // Most commands are the identity on most states; the arena is
      // injective, so out == in short-circuits to the input's own id
      // (the cached-hash compare rejects non-identity outs in one load)
      // without touching the interner.
      for (const State &S2 :
           AN::transfer(Ctx, P, Node.Cmd, States[E.Cur]))
        Out.push_back(S2 == States[E.Cur] ? E.Cur : intern(S2));
      Row = memoAdd(TransferMemo, K, Out);
    }
    auto [Begin, Count] = TransferMemo.Slices[Row];
    for (uint32_t I = 0; I != Count; ++I) {
      uint32_t Id = MemoPool[Begin + I];
      for (NodeId Succ : Node.Succs)
        propagate(P, Succ, E.Entry, Id);
    }
  }

  void processCall(ProcId P, const Edge &E, const CfgNode &Node) {
    ProcId G = Node.Cmd.Callee;
    BoundSite BS = binding(P, E.Node, Node.Cmd);
    EverCalled.set(G);

    // Call-to-return flow that bypasses the callee (empty for analyses
    // whose facts all travel through the callee, like the typestate one).
    for (const State &S : AN::callLocal(BS.B, States[E.Cur])) {
      uint32_t Id = intern(S);
      for (NodeId Succ : Node.Succs)
        propagate(P, Succ, E.Entry, Id);
    }

    // Enter depends only on (site, current state); the sorted-unique
    // entry ids are memoized across all path edges through this site.
    MemoKey EK{BS.Site, E.Cur, 0};
    uint32_t ERow = memoFind(EnterMemo, EK);
    if (ERow == HashIndex::Npos) {
      std::vector<State> Entries = AN::enter(BS.B, States[E.Cur]);
      std::sort(Entries.begin(), Entries.end());
      Entries.erase(std::unique(Entries.begin(), Entries.end()),
                    Entries.end());
      std::vector<uint32_t> Ids;
      Ids.reserve(Entries.size());
      for (const State &EntryState : Entries)
        Ids.push_back(intern(EntryState));
      ERow = memoAdd(EnterMemo, EK, Ids);
    }
    auto [EBegin, ECount] = EnterMemo.Slices[ERow];
    for (uint32_t EI = 0; EI != ECount; ++EI) {
      uint32_t EntryId = MemoPool[EBegin + EI];
      if (!AN::isLambda(States[EntryId]))
        ++Incoming[G].getOrCreate(EntryId);

      // Serve from the bottom-up summary when one covers this entry
      // state. The guard uses SigmaAll (every point's ignore set), which
      // also validates the observation manifest. The decision and the
      // summary's outputs for this entry are cached per (callee, entry)
      // until the next install/shed bumps the generation; without an
      // installed summary the check stays the original single branch.
      if (Bu[G]) {
        uint32_t SRow = serveLookup(G, EntryId);
        if (ServeRows[SRow].Served) {
          uint64_t Served = ++Stat.counter(CtrBuServedCalls);
          obs::instant("td", "bu.serve", {"callee", G}, {"caller", P});
          if (obs::tracingEnabled() && (Served & 63) == 0)
            obs::counterEvent("bu.served_calls", "calls", Served);
          // Copy the slice header: applyAfter can grow the pool.
          ServeRow SR = ServeRows[SRow];
          if (SR.LambdaServe)
            applyAfter(P, E, Node, BS, E.Cur, EntryId);
          for (uint32_t I = 0; I != SR.OutsCount; ++I)
            applyAfter(P, E, Node, BS, E.Cur, MemoPool[SR.OutsBegin + I]);
          // Errors at the callee's internal points, reported at this
          // call.
          for (uint32_t I = 0; I != SR.ObsCount; ++I)
            observedInsert(P, E.Node, MemoPool[SR.ObsBegin + I]);
          continue;
        }
        // A Sigma hit: the summary exists but its ignore set covers this
        // entry state, so the call takes the top-down route.
        ++Stat.counter(CtrBuFallbackCalls);
        obs::instant("td", "bu.fallback", {"callee", G}, {"caller", P});
      }

      // Top-down route: register for resumption and seed the callee.
      Dependents[G].getOrCreate(EntryId).push_back(
          Caller{P, E.Node, E.Entry, E.Cur});
      propagate(G, Prog.proc(G).entry(), EntryId, EntryId);
      if (const std::vector<uint32_t> *Exits = Summaries[G].find(EntryId))
        for (uint32_t ExitId : *Exits)
          applyAfter(P, E, Node, BS, E.Cur, ExitId);

      // The SWIFT trigger (Algorithm 1, line 17), and the one refresh of
      // an installed summary whose Sigma keeps refusing what TD brings.
      if (Cfg.K == NoBuTrigger)
        continue;
      if (!Bu[G] && Incoming[G].size() > Cfg.K) {
        obs::instant("td", "swift.k_trip", {"proc", G},
                     {"incoming", Incoming[G].size()});
        tryRunBu(G);
      } else if (Bu[G] && refreshDue(G)) {
        obs::instant("td", "swift.refresh", {"proc", G},
                     {"refused", BuUses[G].Refused});
        refreshBu(G);
      }
    }
  }

  /// (Re)computes the cached serve decision for entry \p EntryId of
  /// callee \p G, whose summary is installed; returns the ServeRows index.
  /// Rows computed against an earlier install of G's summary are
  /// recomputed in place, so each install sees each distinct entry once:
  /// that is where its served and refused entries are counted.
  uint32_t serveLookup(ProcId G, uint32_t EntryId) {
    uint64_t H = hashCombine(mix64(G), EntryId);
    uint32_t Row = ServeIdx.find(H, [&](uint32_t I) {
      return ServeKeys[I].first == G && ServeKeys[I].second == EntryId;
    });
    BuUse &U = BuUses[G];
    if (Row != HashIndex::Npos && ServeRows[Row].Gen == U.Gen)
      return Row;

    // Copy: interning the outputs below can reallocate the arena.
    State EntryState = States[EntryId];
    ServeRow R{};
    R.Gen = U.Gen;
    if (Bu[G]->SigmaAll.contains(Ctx, EntryState)) {
      ++U.Refused;
    } else {
      ++U.Served;
      R.Served = 1;
      R.LambdaServe = AN::isLambda(EntryState) && Bu[G]->LambdaExit;
      std::vector<uint32_t> Outs, Obs;
      for (const Rel &Rl : Bu[G]->Rels)
        if (std::optional<State> Out = AN::applyRel(Ctx, Rl, EntryState))
          Outs.push_back(*Out == EntryState ? EntryId : intern(*Out));
      for (const Rel &Rl : Bu[G]->ObsRels)
        if (std::optional<State> Out = AN::applyRel(Ctx, Rl, EntryState))
          if (AN::stateObservable(Ctx, *Out))
            Obs.push_back(intern(*Out));
      R.OutsBegin = static_cast<uint32_t>(MemoPool.size());
      R.OutsCount = static_cast<uint32_t>(Outs.size());
      MemoPool.insert(MemoPool.end(), Outs.begin(), Outs.end());
      R.ObsBegin = static_cast<uint32_t>(MemoPool.size());
      R.ObsCount = static_cast<uint32_t>(Obs.size());
      MemoPool.insert(MemoPool.end(), Obs.begin(), Obs.end());
    }
    if (Row == HashIndex::Npos) {
      Row = static_cast<uint32_t>(ServeRows.size());
      ServeIdx.insert(H, Row);
      ServeKeys.push_back({G, EntryId});
      ServeRows.push_back(R);
    } else {
      ServeRows[Row] = R;
    }
    return Row;
  }

  /// Dedups an observation row; insertion order is kept for iteration,
  /// snapshot() sorts.
  void observedInsert(ProcId P, NodeId N, uint32_t StateId) {
    uint64_t H = hashCombine(hashCombine(mix64(P), N), StateId);
    auto [Row, Inserted] = ObservedIdx.findOrInsert(
        H, static_cast<uint32_t>(ObservedRows.size()), [&](uint32_t I) {
          return ObservedRows[I].P == P && ObservedRows[I].Node == N &&
                 ObservedRows[I].StateId == StateId;
        });
    (void)Row;
    if (Inserted)
      ObservedRows.push_back(ObsRow{P, N, StateId});
  }

  /// Combines exit \p ExitId into the caller across call site \p BS and
  /// propagates the results to the call's successors. The combined out
  /// ids are memoized per (site, frame, exit) — resumption replays the
  /// same exit against every waiting caller sharing the frame.
  void applyAfter(ProcId P, const Edge &E, const CfgNode &Node,
                  const BoundSite &BS, uint32_t FrameId, uint32_t ExitId) {
    MemoKey K{BS.Site, FrameId, ExitId};
    uint32_t Row = memoFind(CombineMemo, K);
    if (Row == HashIndex::Npos) {
      std::vector<State> Afters =
          combineDispatch(BS.B, States[FrameId], States[ExitId]);
      std::vector<uint32_t> Ids;
      Ids.reserve(Afters.size());
      // A callee that leaves the caller-visible part alone combines back
      // to the frame state itself; resolve that to FrameId by one
      // cached-hash compare instead of an interner probe.
      for (const State &After : Afters)
        Ids.push_back(After == States[FrameId] ? FrameId : intern(After));
      Row = memoAdd(CombineMemo, K, Ids);
    }
    auto [Begin, Count] = CombineMemo.Slices[Row];
    for (uint32_t I = 0; I != Count; ++I) {
      uint32_t Id = MemoPool[Begin + I];
      for (NodeId Succ : Node.Succs)
        propagate(P, Succ, E.Entry, Id);
    }
  }

  void recordSummary(ProcId P, uint32_t Entry, uint32_t Exit) {
    std::vector<uint32_t> &Exits = Summaries[P].getOrCreate(Entry);
    for (uint32_t X : Exits)
      if (X == Exit)
        return;
    Exits.push_back(Exit);
    ++Stat.counter(CtrTdSummaries);

    // Resume callers waiting on this (callee, entry) pair.
    std::vector<Caller> *DepIt = Dependents[P].find(Entry);
    if (!DepIt)
      return;
    // Copy: applyAfter may grow the dependents map.
    std::vector<Caller> Waiting = *DepIt;
    for (const Caller &C : Waiting) {
      const CfgNode &Node = Prog.proc(C.P).node(C.Node);
      BoundSite BS = binding(C.P, C.Node, Node.Cmd);
      Edge CallerEdge{C.Node, C.Entry, C.Frame};
      applyAfter(C.P, CallerEdge, Node, BS, C.Frame, Exit);
    }
  }

  /// Governed degradation, checked between worklist pops. Shedding runs
  /// once: installed bottom-up caches are dropped (callers fall back to
  /// the always-sound top-down route) and their memory charge released.
  void governPoll() {
    Pressure L = Cfg.Gov->poll();
    if (L == Pressure::Red && !GovShedDone) {
      GovShedDone = true;
      obs::instant("gov", "gov.shed");
      for (ProcId Q = 0; Q != Bu.size(); ++Q)
        if (Bu[Q]) {
          Bu[Q].reset();
          Cfg.Gov->release(BuUses[Q].GovBytes);
          BuUses[Q].GovBytes = 0;
          ++Stat.counter(CtrGovShedSummaries);
        }
    }
  }

  /// The degradation ladder for a bottom-up solve about to start: the
  /// theta to prune with, or nothing under Red, which mints no bottom-up
  /// summaries at all; Yellow halves theta.
  std::optional<uint64_t> ladderTheta() {
    if (!Cfg.Gov)
      return Cfg.Theta;
    Pressure L = Cfg.Gov->level();
    if (pressureAtLeast(L, Pressure::Red)) {
      ++Stat.counter(CtrGovBuSuppressed);
      return std::nullopt;
    }
    if (pressureAtLeast(L, Pressure::Yellow) && Cfg.Theta != NoPruning &&
        Cfg.Theta > 1) {
      ++Stat.counter(CtrGovThetaShrunk);
      return std::max<uint64_t>(1, Cfg.Theta / 2);
    }
    return Cfg.Theta;
  }

  /// Algorithm 1's run_bu for \p G, restricted to what is not summarized
  /// yet: of the procedures reachable from \p G, solves those without an
  /// installed summary and reuses the rest, which Theorem 3.1 makes safe
  /// to keep behind their Sigma guards. Postponed while some reachable
  /// procedure has not been seen by the top-down analysis yet (the
  /// paper's first problematic scenario in Section 4). The top-down
  /// analysis resumes once the run has installed its summaries or run out
  /// of budget.
  void tryRunBu(ProcId G) {
    std::optional<uint64_t> Theta = ladderTheta();
    if (!Theta)
      return;
    std::vector<ProcId> F = CG.reachableFrom(G);
    for (ProcId Q : F)
      if (!EverCalled.get(Q)) {
        ++Stat.counter(CtrBuPostponed);
        return;
      }
    // An SCC is installed whole (closures contain every member of an SCC
    // they touch), so the unsummarized part is closed under SCCs too.
    std::vector<ProcId> Unsummarized;
    for (ProcId Q : F)
      if (!Bu[Q])
        Unsummarized.push_back(Q);
    Stat.counter(CtrBuReused) += F.size() - Unsummarized.size();
    if (solveAndInstall(G, Unsummarized, *Theta, /*Refresh=*/false))
      ++Stat.counter(CtrBuTriggers);
  }

  /// Whether \p G's installed summary is due for its one refresh: it was
  /// pruned under a frequency snapshot that no longer predicts what TD
  /// brings it, i.e. more than k distinct entry states fell back through
  /// its Sigma, and more than RefreshRefusalRatio times as many as it
  /// served. A degraded summary refuses every entry by construction and
  /// is never due.
  bool refreshDue(ProcId G) const {
    const BuUse &U = BuUses[G];
    return U.MayRefresh && U.Refused > Cfg.K &&
           U.Refused > RefreshRefusalRatio * U.Served;
  }

  /// Re-solves \p G's SCC once with the current frequencies, reusing the
  /// installed summaries of its callees, and replaces its members'
  /// summaries.
  void refreshBu(ProcId G) {
    const std::vector<ProcId> &Scc = CG.sccMembers(CG.scc(G));
    for (ProcId Q : Scc)
      BuUses[Q].MayRefresh = false; // Once, whatever the outcome.
    std::optional<uint64_t> Theta = ladderTheta();
    if (Theta && solveAndInstall(G, Scc, *Theta, /*Refresh=*/true))
      ++Stat.counter(CtrBuRefreshes);
  }

  /// One synchronous pruned bottom-up solve of \p Procs on the shared
  /// budget, triggered at \p Root. Every callee of a member is a member
  /// or has an installed summary, which the solver reads as final
  /// (RelationalSolver::installSummary). Installs the members' summaries
  /// and returns true unless the budget ran out.
  bool solveAndInstall(ProcId Root, const std::vector<ProcId> &Procs,
                       uint64_t Theta, bool Refresh) {
    // Materialize the frequency multisets M for the pruning ranking.
    // Wavefront workers only ever read this immutable snapshot — never
    // the interner or the memo tables, which stay top-down-thread-only.
    std::vector<std::unordered_map<State, uint64_t>> Freq(Prog.numProcs());
    for (ProcId Q : Procs)
      Incoming[Q].forEach([&](uint32_t StateId, uint64_t Count) {
        Freq[Q].emplace(States[StateId], Count);
      });

    obs::TraceSpan BuSpan("bu", "bu.sync", {"root", Root},
                          {"frontier", Procs.size()});
    Timer BuTimer;
    // Local stats: the run's bu.steps are re-attributed to the
    // synchronous-phase budget counter before merging.
    Stats BuStats;
    RelationalSolver<AN> Solver(
        Ctx, Prog, CG, Theta, [&Freq](ProcId Q) { return &Freq[Q]; }, Bud,
        BuStats, DefaultMaxRelsPerPoint, Cfg.BuThreads, Cfg.Gov);
    // A callee outside the member's SCC is not a member (SCCs are solved
    // and installed whole), so exactly the installed ones are handed over.
    for (ProcId Q : Procs)
      for (ProcId C : CG.callees(Q))
        if (Bu[C] && CG.scc(C) != CG.scc(Q) && !Solver.hasSummary(C))
          Solver.installSummary(C, *Bu[C]);
    bool Ok = Solver.run(Procs);
    BuStats.counter(CtrBuTimeUs) +=
        static_cast<uint64_t>(BuTimer.seconds() * 1e6);
    Stat.counter(CtrSyncBuSteps) += BuStats.get("bu.steps");
    Stat.merge(BuStats);
    if (!Ok)
      return false; // Budget exhausted; leave uninstalled.
    for (ProcId Q : Procs)
      install(Q, Solver.summary(Q), Refresh);
    return true;
  }

  /// Installs \p Summary for \p Q, replacing (and releasing the governor
  /// charge of) any summary it had. A refreshed summary is final; a
  /// first one may be refreshed once unless it is degraded.
  void install(ProcId Q, BuSummary Summary, bool Refresh) {
    BuUse &U = BuUses[Q];
    if (Cfg.Gov)
      Cfg.Gov->release(U.GovBytes);
    Bu[Q] = std::move(Summary);
    U = BuUse{};
    U.Gen = ++ServeGen; // Cached serve decisions for Q are stale now.
    U.MayRefresh = !Refresh && !(Bu[Q]->SigmaAll == IgnoreAll);
    obs::instant("td", "bu.install", {"proc", Q},
                 {"rels", Bu[Q]->Rels.size()});
    Stat.counter(CtrBuSummaryRels) += Bu[Q]->Rels.size();
    Stat.counter(CtrBuSummarySigma) += Bu[Q]->SigmaAll.size();
    if (Cfg.Gov) {
      U.GovBytes = buSummaryBytes(*Bu[Q]);
      Cfg.Gov->charge(U.GovBytes);
    }
  }

  const Context &Ctx;
  const Program &Prog;
  const CallGraph &CG;
  Config Cfg;
  Budget &Bud;
  Stats &Stat;

  // State interner: dense-id arena plus an open-addressing index over
  // cached hashes. Ids are assigned in first-intern order, which every
  // deterministic replay (memo hit or checkpoint resume) reproduces.
  std::vector<State> States;
  HashIndex StateIndex;

  std::vector<EdgeTab> Edges;
  std::vector<std::pair<ProcId, Edge>> Work;
  std::vector<FlatMap32<std::vector<uint32_t>>> Summaries;
  std::vector<FlatMap32<std::vector<Caller>>> Dependents;
  std::vector<FlatMap32<uint64_t>> Incoming;
  BitVec EverCalled;
  std::vector<std::optional<BuSummary>> Bu;

  // Call-site binding arena: dense site ids double as memo keys.
  HashIndex BindingIdx;
  std::vector<uint64_t> BindingKeys; ///< (proc << 32) | node.
  std::deque<Binding> BindingArena;

  // Observation set: insertion-order rows plus a dedup index.
  std::vector<ObsRow> ObservedRows;
  HashIndex ObservedIdx;

  // Memo tables; all slices live in the shared id pool (index-addressed —
  // the pool reallocates while slices are being replayed).
  std::vector<uint32_t> MemoPool;
  MemoTab TransferMemo; ///< (proc, node, cur) -> transfer out ids.
  MemoTab EnterMemo;    ///< (site, cur, 0) -> sorted-unique entry ids.
  MemoTab CombineMemo;  ///< (site, frame, exit) -> combined out ids.

  /// Cached bottom-up serve decision for one (callee, entry id), valid
  /// while Gen is the callee's BuUse::Gen. Served == 0 also caches the
  /// negative case (its ignore set covers the entry).
  struct ServeRow {
    uint32_t Gen = 0;
    uint32_t OutsBegin = 0, OutsCount = 0;
    uint32_t ObsBegin = 0, ObsCount = 0;
    uint8_t Served = 0;
    uint8_t LambdaServe = 0;
  };
  HashIndex ServeIdx;
  std::vector<std::pair<ProcId, uint32_t>> ServeKeys;
  std::vector<ServeRow> ServeRows;
  uint32_t ServeGen = 0; ///< Bumped on every install.

  /// What one install of a procedure's bottom-up summary has met.
  struct BuUse {
    uint32_t Gen = 0;      ///< Stamp of its serve rows (from ServeGen).
    uint32_t Served = 0;   ///< Distinct entry states it served.
    uint32_t Refused = 0;  ///< Distinct entry states its Sigma refused.
    uint64_t GovBytes = 0; ///< Its governor memory charge.
    bool MayRefresh = false; ///< Neither refreshed nor degraded.
  };
  std::vector<BuUse> BuUses;
  /// The guard of a degraded summary (RelationalSolver::degrade).
  const Ignore IgnoreAll = [] {
    Ignore I;
    AN::ignoreAll(I);
    return I;
  }();

  bool GovShedDone = false; ///< Red-pressure cache shed ran.

  // Interned counter handles (resolved once; bumped per event).
  Stats::Counter CtrPathEdges = Stats::id("td.path_edges");
  Stats::Counter CtrTdSummaries = Stats::id("td.summaries");
  Stats::Counter CtrBuServedCalls = Stats::id("td.bu_served_calls");
  Stats::Counter CtrBuFallbackCalls = Stats::id("td.bu_fallback_calls");
  Stats::Counter CtrBuTriggers = Stats::id("swift.bu_triggers");
  Stats::Counter CtrBuPostponed = Stats::id("swift.bu_postponed");
  Stats::Counter CtrBuTimeUs = Stats::id("swift.bu_time_us");
  Stats::Counter CtrBuSummaryRels = Stats::id("swift.bu_summary_rels");
  Stats::Counter CtrBuSummarySigma = Stats::id("swift.bu_summary_sigma");
  Stats::Counter CtrBuReused = Stats::id("swift.bu_reused");
  Stats::Counter CtrBuRefreshes = Stats::id("swift.bu_refreshes");
  // Budget phase attribution and governor events.
  Stats::Counter CtrTdSteps = Stats::id("budget.td_steps");
  Stats::Counter CtrSyncBuSteps = Stats::id("budget.sync_bu_steps");
  Stats::Counter CtrGovBuSuppressed = Stats::id("gov.bu_suppressed");
  Stats::Counter CtrGovThetaShrunk = Stats::id("gov.theta_shrunk");
  Stats::Counter CtrGovShedSummaries = Stats::id("gov.shed_summaries");
};

} // namespace swift

#endif // SWIFT_FRAMEWORK_TABULATION_H
