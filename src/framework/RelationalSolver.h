//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bottom-up relational solver with pruning: the abstract semantics
/// [[.]]^r of the paper's Sections 3.4-3.5. It computes, per procedure, a
/// summary (R, Sigma): a set of abstract relations from procedure entry to
/// exit plus the set of entry states the summary ignores because pruning
/// dropped the relations covering them.
///
/// Procedures are processed in callee-first SCC order, and each SCC is
/// solved to its fixpoint change-driven (the fix_eta0 computation of
/// Section 3.5, restricted to the requested procedures): every member
/// starts dirty, a round analyzes only the dirty members, and a member
/// whose summary changes marks dirty the members that call it. Callee
/// SCCs are final, so a non-recursive procedure is analyzed exactly once;
/// a recursive SCC runs the same sequence of summaries as re-analyzing
/// every member per round would, minus the analyses that could only
/// reproduce a stored summary. Within a procedure, a worklist runs over
/// the CFG; prune-and-clean is applied to every computed node value, so
/// the number of case-split relations per point stays bounded by theta.
///
/// With NumThreads > 1 the callee-first sweep becomes an SCC-DAG wavefront:
/// a thread pool dispatches any SCC whose callee SCCs have completed, so
/// independent subtrees of the call graph are summarized concurrently (the
/// embarrassingly parallel structure compositional analyses exploit).
/// Results are deterministic — identical summaries for every thread count —
/// because iteration inside an SCC stays sequential, an SCC reads only the
/// *final* summaries of its callee SCCs, and each summary is written to its
/// own per-procedure slot. Each worker charges a local Stats merged on
/// completion; the Budget is shared and thread-safe, and it is the one
/// stop signal: once it is exhausted every worker fails at its next step
/// and the remaining SCCs are skipped.
///
/// The prune operator follows Section 3.4: case-split relations are ranked
/// by the frequency with which the top-down analysis has seen entry states
/// in their domains (the multiset M), the top theta survive, and the
/// domains of the rest are added to Sigma. Relations that never case-split
/// (concrete fresh-object relations) are exempt: they are bounded by the
/// number of allocation sites and carry no generalization risk.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_FRAMEWORK_RELATIONALSOLVER_H
#define SWIFT_FRAMEWORK_RELATIONALSOLVER_H

#include "govern/Governor.h"
#include "ir/CallGraph.h"
#include "ir/Program.h"
#include "obs/Trace.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

namespace swift {

inline constexpr uint64_t NoPruning = UINT64_MAX;

/// Cap on the relation count at a single program point; exceeding it
/// aborts the run, modelling the paper's out-of-memory timeouts of the
/// unpruned bottom-up analysis (16 GB / 24 h in their setup).
inline constexpr uint64_t DefaultMaxRelsPerPoint = 1 << 17;

/// Convergence guards for the *pruned* analysis: a recursive SCC whose
/// summaries still change in round MaxSccIterations (the guard counts
/// solveScc rounds), or a procedure whose ignore set exceeds
/// MaxSigmaDisjuncts disjuncts, has its summary soundly degraded to
/// "ignore every input" — callers then always fall back to the top-down
/// analysis for it, which preserves coincidence.
inline constexpr uint64_t MaxSccIterations = 16;
inline constexpr uint64_t MaxSigmaDisjuncts = 256;

template <typename AN> class RelationalSolver {
public:
  using Context = typename AN::Context;
  using State = typename AN::State;
  using Rel = typename AN::Rel;
  using Ignore = typename AN::Ignore;
  using Binding = typename AN::Binding;
  using SummaryView = typename AN::SummaryView;

  struct Summary {
    std::vector<Rel> Rels; ///< Sorted, unique.
    Ignore Sigma;
    /// Whether the implicit Lambda identity reaches the exit: false when
    /// every path to the exit passes a never-returning call, in which case
    /// a Lambda input produces no output at all.
    bool LambdaExit = false;

    /// The observation manifest: relations from procedure entry to *any*
    /// (transitively) reachable program point whose output can be an
    /// observable (error) state. Needed because an error on a diverging
    /// path never reaches the exit relations; with the manifest, serving a
    /// call from this summary reports exactly the error sites a top-down
    /// re-analysis would. This goes beyond the paper's formalism, which
    /// only relates input/output behaviour (Theorem 3.1).
    std::vector<Rel> ObsRels;
    /// Union of the ignore sets of every program point (not just the
    /// exit); the sound guard for using Rels *and* ObsRels.
    Ignore SigmaAll;
  };

  /// Per-procedure entry-state frequencies (the multiset M) observed by
  /// the top-down analysis; used to rank relations during pruning. May
  /// return nullptr when no data exists for a procedure. Must be safe to
  /// call from worker threads (the providers used here read an immutable
  /// snapshot).
  using FreqProvider = std::function<
      const std::unordered_map<State, uint64_t> *(ProcId)>;

  /// \p Gov, when given, receives memory charges for in-flight relation
  /// stores; crossing its memory cap exhausts the shared Budget, which
  /// stops the run at its next step. The governor's Budget should be \p B.
  RelationalSolver(const Context &Ctx, const Program &Prog,
                   const CallGraph &CG, uint64_t Theta, FreqProvider Freq,
                   Budget &B, Stats &S,
                   uint64_t MaxRelsPerPoint = DefaultMaxRelsPerPoint,
                   unsigned NumThreads = 1, ResourceGovernor *Gov = nullptr)
      : Ctx(Ctx), Prog(Prog), CG(CG), Theta(Theta), Freq(std::move(Freq)),
        Bud(B), Stat(S), MaxRels(MaxRelsPerPoint), Threads(NumThreads),
        Gov(Gov) {
    Summaries.resize(Prog.numProcs());
    HasSummary.assign(Prog.numProcs(), 0);
    Bindings.resize(Prog.numProcs());
  }

  /// Computes summaries for \p Procs, which must be closed under calls
  /// (every callee of a member is a member). Returns false if the budget
  /// ran out; summaries are then incomplete and must not be used.
  bool run(const std::vector<ProcId> &Procs) {
    std::vector<std::vector<ProcId>> Groups = sccGroups(Procs);
    if (Threads <= 1 || Groups.size() <= 1) {
      for (const std::vector<ProcId> &G : Groups)
        if (!solveScc(G, Stat))
          return false;
      return true;
    }
    return runWavefront(Groups);
  }

  /// Soundly gives up on \p P: its summary ignores every input, so every
  /// call to it falls back to the top-down analysis. Returns true if the
  /// stored summary changed.
  bool degrade(ProcId P) {
    Summary S;
    AN::ignoreAll(S.Sigma);
    AN::ignoreAll(S.SigmaAll);
    S.LambdaExit = false;
    if (HasSummary[P] && equal(S, Summaries[P]))
      return false;
    Summaries[P] = std::move(S);
    HasSummary[P] = 1;
    return true;
  }

  bool hasSummary(ProcId P) const { return HasSummary[P] != 0; }
  const Summary &summary(ProcId P) const { return Summaries[P]; }

  /// Installs \p S as the final summary of \p P without analyzing it.
  /// This is the warm-start / incremental path, and how a SWIFT trigger
  /// reuses the summaries earlier triggers installed: a subsequent run()
  /// over a set excluding \p P reads it for calls to \p P exactly as if
  /// this solver had computed it, so run()'s call-closure precondition
  /// weakens to "every callee is a member or has an installed summary".
  /// Must not be called while run() is in flight.
  void installSummary(ProcId P, Summary S) {
    Summaries[P] = std::move(S);
    HasSummary[P] = 1;
  }

  /// Observer of summary reads: invoked (possibly repeatedly) for every
  /// Call command processed during run(), with the procedure under
  /// analysis and the callee whose summary — installed, in-flight, or the
  /// empty eta_0 start — it consults. The serve engine records these
  /// edges to invalidate exactly the dependent summaries on a program
  /// edit. With NumThreads > 1 the callback fires on worker threads and
  /// must be thread-safe.
  using DepRecorder = std::function<void(ProcId Caller, ProcId Callee)>;
  void setDepRecorder(DepRecorder R) { Deps = std::move(R); }

  /// Observer of SCC completion: invoked once per SCC group at the end of
  /// a successful solveScc, after every member's summary is final (sorted
  /// members). Sharded workers publish each completed SCC's summaries to
  /// the spool from here, so a crash loses at most the in-flight SCC.
  /// With NumThreads > 1 the callback fires on worker threads and must be
  /// thread-safe. An exception thrown from the callback propagates out of
  /// run().
  using SccObserver = std::function<void(const std::vector<ProcId> &)>;
  void setSccObserver(SccObserver O) { SccDone = std::move(O); }

  /// Total number of bottom-up summaries: one per (relation, procedure)
  /// pair, matching the paper's counting of (r, phi) pairs.
  uint64_t totalRelations() const {
    uint64_t N = 0;
    for (size_t P = 0; P != Summaries.size(); ++P)
      if (HasSummary[P])
        N += Summaries[P].Rels.size();
    return N;
  }

private:
  struct NodeVal {
    std::vector<Rel> Rels; ///< Sorted, unique.
    Ignore Sigma;
    bool HasLambda = false; ///< Does the Lambda identity reach this node?
  };

  /// Per-relation footprint for the governor's memory estimate; analyses
  /// with out-of-line storage provide AN::relBytes, others fall back to
  /// the object size.
  static uint64_t approxRelBytes(const Rel &R) {
    if constexpr (requires { AN::relBytes(R); })
      return AN::relBytes(R);
    else
      return sizeof(Rel);
  }

  /// RAII memory accounting for one analyzeProc invocation's in-flight
  /// relation stores: charges accumulate as node values grow and are
  /// released wholesale when the pass ends (its per-node vectors die with
  /// the frame; only the final Summary — charged by the tabulation solver
  /// on install — outlives it).
  struct GovCharge {
    ResourceGovernor *Gov;
    uint64_t Bytes = 0;
    explicit GovCharge(ResourceGovernor *G) : Gov(G) {}
    GovCharge(const GovCharge &) = delete;
    GovCharge &operator=(const GovCharge &) = delete;
    void add(uint64_t B) {
      if (!Gov)
        return;
      Gov->charge(B);
      Bytes += B;
    }
    ~GovCharge() {
      if (Gov)
        Gov->release(Bytes);
    }
  };

  static bool equal(const Summary &A, const Summary &B) {
    return A.Rels == B.Rels && A.Sigma == B.Sigma &&
           A.LambdaExit == B.LambdaExit && A.ObsRels == B.ObsRels &&
           A.SigmaAll == B.SigmaAll;
  }

  /// Buckets \p Procs into SCC groups in callee-first order (ascending
  /// SCC index); members within a group are sorted by ProcId so iteration
  /// order — and therefore every summary — is independent of the caller's
  /// ordering and of the thread count.
  std::vector<std::vector<ProcId>>
  sccGroups(const std::vector<ProcId> &Procs) const {
    std::vector<ProcId> Order = Procs;
    std::sort(Order.begin(), Order.end(), [this](ProcId A, ProcId B) {
      if (CG.scc(A) != CG.scc(B))
        return CG.scc(A) < CG.scc(B);
      return A < B;
    });
    std::vector<std::vector<ProcId>> Groups;
    size_t I = 0;
    while (I != Order.size()) {
      size_t J = I;
      while (J != Order.size() && CG.scc(Order[J]) == CG.scc(Order[I]))
        ++J;
      Groups.emplace_back(Order.begin() + I, Order.begin() + J);
      I = J;
    }
    return Groups;
  }

  /// Solves one SCC's members to their fixpoint (charging \p S).
  /// Precondition: every callee SCC's summaries are final.
  ///
  /// Change-driven: every member starts dirty; a round analyzes the dirty
  /// members in ProcId order, each reading the latest summaries; a member
  /// whose stored summary changes marks dirty the members that call it
  /// (itself included, when self-recursive), which a later position picks
  /// up in the same round and an earlier one in the next. analyzeProc is
  /// a deterministic function of the callee summaries it reads, so a
  /// member that is not dirty would only reproduce its stored summary:
  /// skipping it leaves every summary as re-analyzing all members per
  /// round would. The group is done when no member is dirty.
  bool solveScc(const std::vector<ProcId> &Members, Stats &S) {
    // One span per SCC: in the wavefront these land on the worker thread
    // that ran the group, so per-worker utilization reads directly off
    // the trace timeline.
    obs::TraceSpan SccSpan("bu", "bu.scc", {"proc", Members.front()},
                           {"members", Members.size()});
    std::vector<uint8_t> Dirty(Members.size(), 1);
    size_t NumDirty = Members.size();
    for (uint64_t Round = 1; NumDirty != 0; ++Round) {
      ++S.counter(CtrSccIterations);
      bool RoundChanged = false;
      for (size_t I = 0; I != Members.size(); ++I) {
        if (!Dirty[I])
          continue;
        Dirty[I] = 0;
        --NumDirty;
        ProcId P = Members[I];
        ++S.counter(CtrProcAnalyses);
        Summary New;
        if (!analyzeProc(P, New, S))
          return false;
        bool Changed;
        if (New.SigmaAll.size() > MaxSigmaDisjuncts) {
          Changed = degrade(P);
          if (Changed)
            ++S.counter(CtrSigmaDegraded);
        } else {
          Changed = !HasSummary[P] || !equal(New, Summaries[P]);
          if (Changed) {
            Summaries[P] = std::move(New);
            HasSummary[P] = 1;
          }
        }
        if (!Changed)
          continue;
        RoundChanged = true;
        // Members are sorted by ProcId (sccGroups).
        for (ProcId C : CG.callers(P)) {
          auto It = std::lower_bound(Members.begin(), Members.end(), C);
          size_t J = It - Members.begin();
          if (It != Members.end() && *It == C && !Dirty[J]) {
            Dirty[J] = 1;
            ++NumDirty;
          }
        }
      }
      // The guard counts rounds that change a summary: an SCC still
      // changing one in round MaxSccIterations is degraded even when the
      // change left no member dirty, so whether it fires does not depend
      // on which members happen to call the last one to change.
      if (RoundChanged && Round == MaxSccIterations) {
        for (ProcId P : Members)
          degrade(P);
        ++S.counter(CtrSccDegraded);
        break;
      }
    }
    if (SccDone)
      SccDone(Members);
    return true;
  }

  /// Dispatches the SCC groups as a wavefront over the SCC DAG: a group
  /// becomes ready when every callee group has completed. Workers charge
  /// local Stats merged under the scheduler lock (the lock also provides
  /// the happens-before edge from a callee group's summary writes to its
  /// dependents' reads).
  bool runWavefront(const std::vector<std::vector<ProcId>> &Groups) {
    obs::TraceSpan WaveSpan("bu", "bu.wavefront",
                            {"groups", Groups.size()},
                            {"threads", Threads});
    size_t N = Groups.size();
    std::unordered_map<size_t, size_t> GroupOf; // SCC index -> position.
    for (size_t I = 0; I != N; ++I)
      GroupOf.emplace(CG.scc(Groups[I].front()), I);

    std::vector<std::vector<size_t>> Dependents(N);
    std::vector<size_t> PendingDeps(N, 0);
    for (size_t I = 0; I != N; ++I) {
      std::set<size_t> CalleeGroups;
      for (ProcId P : Groups[I])
        for (ProcId Q : CG.callees(P)) {
          auto It = GroupOf.find(CG.scc(Q));
          if (It != GroupOf.end() && It->second != I)
            CalleeGroups.insert(It->second);
        }
      for (size_t C : CalleeGroups)
        Dependents[C].push_back(I);
      PendingDeps[I] = CalleeGroups.size();
    }

    ThreadPool Pool(Threads);
    std::mutex M;
    // Relaxed suffices for Failed: it makes a single false -> true
    // transition, the loads are only an early-out hint, and the
    // authoritative final load below is ordered after every worker's
    // store by Pool.wait()'s mutex (task completion happens-before
    // wait() returning). No data is published through Failed itself —
    // summary visibility comes from the scheduler mutex M.
    std::atomic<bool> Failed{false};

    // On failure (budget / relation cap) the cascade still runs so every
    // group is accounted for; the work itself is skipped.
    std::function<void(size_t)> RunGroup = [&](size_t I) {
      if (!Failed.load(std::memory_order_relaxed)) {
        Stats Local;
        if (!solveScc(Groups[I], Local))
          Failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> L(M);
        Stat.merge(Local);
      }
      std::vector<size_t> Ready;
      {
        std::lock_guard<std::mutex> L(M);
        for (size_t D : Dependents[I])
          if (--PendingDeps[D] == 0)
            Ready.push_back(D);
      }
      for (size_t D : Ready)
        Pool.submit([&RunGroup, D] { RunGroup(D); });
    };

    // Snapshot the roots before the first submit: once a worker runs, it
    // decrements PendingDeps under M, which this loop must not read.
    std::vector<size_t> Initial;
    for (size_t I = 0; I != N; ++I)
      if (PendingDeps[I] == 0)
        Initial.push_back(I);
    for (size_t I : Initial)
      Pool.submit([&RunGroup, I] { RunGroup(I); });

    // Pending counts queued plus running tasks, so wait() returns only
    // after the last RunGroup invocation has fully returned; nothing
    // touches RunGroup, the pool, or this frame afterwards.
    Pool.wait();
    return !Failed.load(std::memory_order_relaxed);
  }

  /// Sorts, dedupes, drops relations covered by Sigma (excl), and applies
  /// bestTheta pruning ranked by the procedure's entry-state frequencies.
  void pruneAndClean(ProcId P, std::vector<Rel> &Rels, Ignore &Sigma,
                     Stats &S) {
    std::sort(Rels.begin(), Rels.end());
    Rels.erase(std::unique(Rels.begin(), Rels.end()), Rels.end());
    Rels.erase(std::remove_if(Rels.begin(), Rels.end(),
                              [&Sigma](const Rel &R) {
                                return AN::ignoreCoversDom(Sigma, R);
                              }),
               Rels.end());
    if (Theta == NoPruning)
      return;

    size_t NumPrunable = 0;
    for (const Rel &R : Rels)
      if (AN::relIsPrunable(R))
        ++NumPrunable;
    if (NumPrunable <= Theta)
      return;

    // Without frequency data the ranking would be blind and could prune
    // the dominating case (the paper's first problematic scenario in
    // Section 4); keep everything for such procedures.
    const std::unordered_map<State, uint64_t> *M = Freq(P);
    if (!M || M->empty())
      return;

    // Rank prunable relations by observed entry-state frequency (Section
    // 3.4's rank operator), keep the top theta. Ties prefer more general
    // relations (fewer domain constraints).
    std::vector<std::pair<uint64_t, size_t>> Ranked;
    for (size_t I = 0; I != Rels.size(); ++I) {
      if (!AN::relIsPrunable(Rels[I]))
        continue;
      uint64_t Rank = 0;
      for (const auto &[St, Count] : *M)
        if (AN::domContains(Ctx, Rels[I], St))
          Rank += Count;
      Ranked.push_back({Rank, I});
    }
    std::sort(Ranked.begin(), Ranked.end(),
              [&Rels](const auto &A, const auto &B) {
                if (A.first != B.first)
                  return A.first > B.first;
                size_t GA = AN::relGenerality(Rels[A.second]);
                size_t GB = AN::relGenerality(Rels[B.second]);
                if (GA != GB)
                  return GA < GB;
                return Rels[A.second] < Rels[B.second];
              });

    std::vector<bool> Drop(Rels.size(), false);
    for (size_t I = Theta; I < Ranked.size(); ++I) {
      size_t Idx = Ranked[I].second;
      Drop[Idx] = true;
      AN::addDomToIgnore(Rels[Idx], Sigma);
      ++S.counter(CtrPrunedRelations);
    }
    std::vector<Rel> Kept;
    Kept.reserve(Rels.size());
    for (size_t I = 0; I != Rels.size(); ++I)
      if (!Drop[I])
        Kept.push_back(std::move(Rels[I]));
    // excl: dropping domains may make retained relations redundant.
    Kept.erase(std::remove_if(Kept.begin(), Kept.end(),
                              [&Sigma](const Rel &R) {
                                return AN::ignoreCoversDom(Sigma, R);
                              }),
               Kept.end());
    Rels = std::move(Kept);
  }

  /// One full intraprocedural pass over \p P's CFG with the current
  /// summary map. Returns false on budget exhaustion.
  bool analyzeProc(ProcId P, Summary &Out, Stats &S) {
    const Procedure &Proc = Prog.proc(P);
    std::vector<NodeVal> Vals(Proc.numNodes());
    std::vector<bool> InList(Proc.numNodes(), false);
    GovCharge Charge(Gov);

    // RPO position for worklist ordering.
    std::vector<uint32_t> RpoPos(Proc.numNodes(), UINT32_MAX);
    for (uint32_t I = 0; I != Proc.reachableRpo().size(); ++I)
      RpoPos[Proc.reachableRpo()[I]] = I;

    Vals[Proc.entry()].Rels.push_back(AN::identityRel(Ctx));
    Vals[Proc.entry()].HasLambda = true;
    std::vector<Rel> Obs;
    size_t ObsCompactAt = 1024;
    Ignore SigAll;
    std::vector<NodeId> Work{Proc.entry()};
    InList[Proc.entry()] = true;

    while (!Work.empty()) {
      if (!Bud.step())
        return false;
      ++S.counter(CtrBuSteps);
      // Pop the node earliest in RPO for fast convergence.
      size_t Best = 0;
      for (size_t I = 1; I != Work.size(); ++I)
        if (RpoPos[Work[I]] < RpoPos[Work[Best]])
          Best = I;
      NodeId N = Work[Best];
      Work[Best] = Work.back();
      Work.pop_back();
      InList[N] = false;
      ++S.counter(CtrNodeVisits);

      // Charge the budget per input relation so huge relation sets at one
      // point cannot stall the wall-clock poll.
      for (size_t I = 0; I != Vals[N].Rels.size(); ++I) {
        if (!Bud.step())
          return false;
        ++S.counter(CtrBuSteps);
      }

      const CfgNode &Node = Proc.node(N);
      NodeVal OutVal;
      OutVal.Sigma = Vals[N].Sigma;

      if (Node.Cmd.Kind == CmdKind::Call) {
        ProcId G = Node.Cmd.Callee;
        if (Deps)
          Deps(P, G);
        SummaryView SV;
        static const std::vector<Rel> EmptyRels;
        static const Ignore EmptySigma;
        bool CalleeLambdaExit = false;
        if (HasSummary[G]) {
          SV.Rels = &Summaries[G].Rels;
          SV.Sigma = &Summaries[G].Sigma;
          CalleeLambdaExit = Summaries[G].LambdaExit;
        } else {
          // In-flight recursion: the empty summary is the eta_0 start of
          // the fixpoint iteration.
          SV.Rels = &EmptyRels;
          SV.Sigma = &EmptySigma;
        }
        const Binding &Bind = binding(P, N, Node.Cmd);
        // Each input relation composes with the callee's whole summary,
        // work that the one step charged for it above does not bound.
        for (const Rel &R : Vals[N].Rels) {
          if (!Bud.poll())
            return false;
          AN::composeCall(Ctx, Bind, R, SV, OutVal.Rels, OutVal.Sigma);
          if (OutVal.Rels.size() > MaxRels) {
            ++S.counter(CtrRelCapHits);
            return false; // Models running out of memory.
          }
        }
        if (Vals[N].HasLambda) {
          AN::composeCallLambda(Ctx, Bind, SV, OutVal.Rels, OutVal.Sigma);
          // Lambda survives the call only if it reaches the callee's exit
          // and the callee's summary does not ignore it.
          OutVal.HasLambda =
              CalleeLambdaExit && !OutVal.Sigma.containsLambda();
        }

        // Lift the callee's observation manifest (errors at its internal
        // points) into this procedure's entry vocabulary.
        SummaryView ObsSV;
        ObsSV.Rels = HasSummary[G] ? &Summaries[G].ObsRels : &EmptyRels;
        ObsSV.Sigma = HasSummary[G] ? &Summaries[G].SigmaAll : &EmptySigma;
        std::vector<Rel> LiftedObs;
        for (const Rel &R : Vals[N].Rels) {
          if (!Bud.poll())
            return false;
          AN::composeCall(Ctx, Bind, R, ObsSV, LiftedObs, SigAll);
          if (LiftedObs.size() > MaxRels) {
            ++S.counter(CtrRelCapHits);
            return false;
          }
        }
        if (Vals[N].HasLambda)
          AN::composeCallLambda(Ctx, Bind, ObsSV, LiftedObs, SigAll);
        for (Rel &R : LiftedObs)
          if (AN::relMayObserve(Ctx, R))
            Obs.push_back(std::move(R));
      } else {
        OutVal.HasLambda = Vals[N].HasLambda;
        for (const Rel &R : Vals[N].Rels) {
          for (Rel &R2 : AN::rtrans(Ctx, P, Node.Cmd, R))
            OutVal.Rels.push_back(std::move(R2));
          if (OutVal.Rels.size() > MaxRels) {
            ++S.counter(CtrRelCapHits);
            return false;
          }
        }
        if (Vals[N].HasLambda)
          for (Rel &R2 : AN::lambdaEmits(Ctx, Node.Cmd))
            OutVal.Rels.push_back(std::move(R2));
      }

      if (OutVal.Rels.size() > MaxRels) {
        ++S.counter(CtrRelCapHits);
        return false; // Models running out of memory.
      }
      pruneAndClean(P, OutVal.Rels, OutVal.Sigma, S);

      // Record observable relations at this point and fold this point's
      // ignore set into the whole-procedure guard.
      SigAll.unionWith(OutVal.Sigma);
      for (const Rel &R : OutVal.Rels)
        if (AN::relMayObserve(Ctx, R))
          Obs.push_back(R);
      if (Obs.size() > ObsCompactAt) {
        std::sort(Obs.begin(), Obs.end());
        Obs.erase(std::unique(Obs.begin(), Obs.end()), Obs.end());
        if (Obs.size() > MaxRels) {
          ++S.counter(CtrRelCapHits);
          return false;
        }
        ObsCompactAt = std::max<size_t>(1024, Obs.size() * 2);
      }

      for (NodeId Succ : Node.Succs) {
        bool Grew = Vals[Succ].Sigma.unionWith(OutVal.Sigma);
        if (OutVal.HasLambda && !Vals[Succ].HasLambda) {
          Vals[Succ].HasLambda = true;
          Grew = true;
        }
        size_t Merged = 0;
        for (const Rel &R : OutVal.Rels) {
          // Sorted inserts into a large value can run long too.
          if ((++Merged & 1023) == 0 && !Bud.poll())
            return false;
          // A relation whose domain the successor already ignores was
          // pruned there before; re-inserting it would oscillate with
          // pruning and the loop fixpoint would never converge.
          if (AN::ignoreCoversDom(Vals[Succ].Sigma, R))
            continue;
          auto It = std::lower_bound(Vals[Succ].Rels.begin(),
                                     Vals[Succ].Rels.end(), R);
          if (It == Vals[Succ].Rels.end() || !(*It == R)) {
            Vals[Succ].Rels.insert(It, R);
            Charge.add(approxRelBytes(R));
            Grew = true;
          }
        }
        if (Grew) {
          // Joins and loop heads re-prune the accumulated value (the
          // prune-on-join and prune-on-iterate of Section 3.4).
          pruneAndClean(P, Vals[Succ].Rels, Vals[Succ].Sigma, S);
          if (!InList[Succ]) {
            InList[Succ] = true;
            Work.push_back(Succ);
          }
        }
      }
    }

    Out.Rels = std::move(Vals[Proc.exit()].Rels);
    Out.Sigma = std::move(Vals[Proc.exit()].Sigma);
    Out.LambdaExit = Vals[Proc.exit()].HasLambda;
    SigAll.unionWith(Out.Sigma);
    std::sort(Obs.begin(), Obs.end());
    Obs.erase(std::unique(Obs.begin(), Obs.end()), Obs.end());
    Out.ObsRels = std::move(Obs);
    Out.SigmaAll = std::move(SigAll);
    return true;
  }

  /// Per-procedure binding cache. Partitioned by procedure so concurrent
  /// SCC groups (which never share a procedure) never share a map.
  const Binding &binding(ProcId P, NodeId N, const Command &Cmd) {
    auto &Map = Bindings[P];
    auto It = Map.find(N);
    if (It == Map.end())
      It = Map.emplace(N, AN::makeBinding(Ctx, P, Cmd)).first;
    return It->second;
  }

  const Context &Ctx;
  const Program &Prog;
  const CallGraph &CG;
  uint64_t Theta;
  FreqProvider Freq;
  Budget &Bud;
  Stats &Stat;
  uint64_t MaxRels;
  unsigned Threads;
  ResourceGovernor *Gov; ///< Optional; see constructor.
  DepRecorder Deps;      ///< Optional; see setDepRecorder.
  SccObserver SccDone;   ///< Optional; see setSccObserver.
  std::vector<Summary> Summaries;
  /// Byte-sized (not vector<bool>) so concurrent SCC groups writing
  /// distinct procedures never touch the same object.
  std::vector<uint8_t> HasSummary;
  std::vector<std::unordered_map<NodeId, Binding>> Bindings;

  // Interned counter handles: resolved once here, bumped per event at
  // vector-index cost (also what makes per-worker stats mergeable).
  Stats::Counter CtrSccIterations = Stats::id("bu.scc_iterations");
  Stats::Counter CtrSccDegraded = Stats::id("bu.scc_degraded");
  Stats::Counter CtrSigmaDegraded = Stats::id("bu.sigma_degraded");
  Stats::Counter CtrProcAnalyses = Stats::id("bu.proc_analyses");
  Stats::Counter CtrNodeVisits = Stats::id("bu.node_visits");
  Stats::Counter CtrRelCapHits = Stats::id("bu.rel_cap_hits");
  Stats::Counter CtrPrunedRelations = Stats::id("bu.pruned_relations");
  /// Budget steps this bottom-up run consumed; the tabulation solver
  /// re-attributes it to budget.sync_bu_steps.
  Stats::Counter CtrBuSteps = Stats::id("bu.steps");
};

} // namespace swift

#endif // SWIFT_FRAMEWORK_RELATIONALSOLVER_H
