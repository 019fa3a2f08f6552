//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The problem interface of the generic IFDS adapter: any distributive
/// kill/gen dataflow problem over atomic facts describes itself through
/// this interface — a dense, pre-enumerated fact universe and per-fact
/// flow functions for the four IFDS edge kinds (normal, call, return,
/// call-to-return) — and `IfdsAnalysis` lowers it onto the framework's
/// `AnalysisTraits` contract so the unchanged SWIFT solvers
/// (`Tabulation.h`, `RelationalSolver.h`) run it: the top-down side uses
/// the flow functions directly, and the bottom-up side is synthesized
/// exactly as the paper's Section 5 describes for the kill/gen family
/// (identity-except relations plus single summary edges, extended by
/// composing with each command's kill/gen footprint).
///
/// Facts are dense 32-bit ids; id 0 is Lambda (the IFDS zero fact, always
/// present — seed facts are expressed as Lambda-flow at the commands that
/// create them, via `lambdaGen`). Dense ids are what lets the
/// data-oriented tabulation core (state interning, memoized transfer /
/// enter / combine over `support/FlatHash.h`) apply to every client with
/// no per-domain hashing cost: the state hash IS the fact id.
///
/// Contract (see docs/DOMAINS.md for the worked guide):
///  * `transfer` must be a pure function of (command, fact) — facts not in
///    `affected(cmd)` must map to exactly {themselves}.
///  * `lambdaGen(p, cmd)` lists the facts a command creates from nothing;
///    they are the image of Lambda minus Lambda itself.
///  * Report facts (`isReport`) must be absorbing: every command and every
///    return mapping passes them through unchanged, and `callLocal` keeps
///    them in the caller frame (they are observations in the paper's
///    sense; the solvers surface them through the observation manifest
///    even when the creating callee ran bottom-up).
///  * `callFootprint(b)` lists every fact whose flow across call site `b`
///    differs from plain frame survival — the call-level analogue of
///    `affected`.
///
/// `KillGenTest.FootprintIsExact` (tests/clients_test.cpp) checks the
/// first bullet, and that the adapter's `rtrans` of the identity agrees
/// with `transfer`, for every client.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_CLIENTS_IFDS_IFDSPROBLEM_H
#define SWIFT_CLIENTS_IFDS_IFDSPROBLEM_H

#include "clients/Binding.h"
#include "ir/Program.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace swift {
namespace ifds {

/// Dense fact id into the problem's pre-enumerated universe.
using FactId = uint32_t;

/// Id 0 is always Lambda, the IFDS zero fact.
inline constexpr FactId LambdaFact = 0;

/// One distributive kill/gen IFDS problem over a fixed program. Instances
/// are immutable after construction and shared by concurrent solver
/// threads; every method must be const and thread-safe.
class IfdsProblem {
public:
  explicit IfdsProblem(const Program &Prog) : Prog(Prog) {
    for (ProcId P = 0; P != Prog.numProcs(); ++P) {
      const Procedure &Proc = Prog.proc(P);
      for (NodeId N : Proc.reachableRpo())
        CmdSite.emplace(&Proc.node(N).Cmd, std::make_pair(P, N));
    }
  }
  virtual ~IfdsProblem() = default;

  const Program &program() const { return Prog; }

  /// Short machine-readable domain name, e.g. "taint".
  virtual std::string name() const = 0;

  /// Size of the fact universe, Lambda included.
  virtual uint32_t numFacts() const = 0;

  /// Canonical rendering of a fact (used for result comparison across
  /// configurations and for reporting).
  virtual std::string factText(FactId F) const = 0;

  /// Normal-edge flow: the successors of non-Lambda fact \p F across the
  /// non-call command \p Cmd, appended to \p Out. An empty append kills
  /// the fact.
  virtual void transfer(ProcId P, const Command &Cmd, FactId F,
                        std::vector<FactId> &Out) const = 0;

  /// The kill/gen footprint: every fact whose `transfer` under \p Cmd is
  /// not exactly {itself}.
  virtual void affected(const Command &Cmd,
                        std::vector<FactId> &Out) const = 0;

  /// Facts created from nothing by \p Cmd (the image of Lambda minus
  /// Lambda).
  virtual void lambdaGen(ProcId P, const Command &Cmd,
                         std::vector<FactId> &Out) const = 0;

  /// Call-edge flow: \p F mapped into the callee's entry scope.
  virtual void enter(const clients::Binding &B, FactId F,
                     std::vector<FactId> &Out) const = 0;

  /// Call-to-return flow: the part of \p F that bypasses the callee and
  /// survives in the caller frame.
  virtual void callLocal(const clients::Binding &B, FactId F,
                         std::vector<FactId> &Out) const = 0;

  /// Return-edge flow: callee exit fact \p F mapped back to the caller.
  virtual void combineExit(const clients::Binding &B, FactId F,
                           std::vector<FactId> &Out) const = 0;

  /// Every fact whose flow across call site \p B is not plain frame
  /// survival (killed, entering the callee, or rebound by the result).
  virtual void callFootprint(const clients::Binding &B,
                             std::vector<FactId> &Out) const = 0;

  /// True for absorbing report facts ("a finding at a program point").
  virtual bool isReport(FactId F) const = 0;

  /// The program point a report fact denotes; false for non-reports.
  virtual bool reportSite(FactId F, ProcId &P, NodeId &N) const = 0;

protected:
  /// (proc, node) of a command, recoverable because solvers always pass
  /// commands by reference into the immutable Program's CFG storage.
  /// Lets `lambdaGen` mint point-stamped facts (defs, reports) without a
  /// ProcId parameter on the framework's Lambda-emission hook.
  std::pair<ProcId, NodeId> siteOf(const Command &Cmd) const {
    auto It = CmdSite.find(&Cmd);
    assert(It != CmdSite.end() && "command not in this program's CFG");
    return It->second;
  }

private:
  const Program &Prog;
  std::unordered_map<const Command *, std::pair<ProcId, NodeId>> CmdSite;
};

} // namespace ifds
} // namespace swift

#endif // SWIFT_CLIENTS_IFDS_IFDSPROBLEM_H
