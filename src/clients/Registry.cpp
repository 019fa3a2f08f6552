//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"

#include "clients/ifds/IfdsAnalysis.h"
#include "clients/ifds/NullDerefProblem.h"
#include "clients/ifds/ReachingDefsProblem.h"
#include "clients/ifds/TaintProblem.h"
#include "clients/interval/IntervalAnalysis.h"

#include <memory>
#include <stdexcept>

using namespace swift;
using namespace swift::clients;

const std::vector<std::string> &clients::clientDomainNames() {
  static const std::vector<std::string> Names{"taint", "nullderef",
                                             "reachdefs", "interval"};
  return Names;
}

bool clients::isClientDomain(const std::string &Domain) {
  for (const std::string &N : clientDomainNames())
    if (N == Domain)
      return true;
  return false;
}

namespace {

/// Const-safe symbol lookup: scans the table instead of interning.
Symbol findSymbol(const SymbolTable &Syms, const std::string &Text) {
  for (uint32_t I = 1; I <= Syms.size(); ++I)
    if (Syms.text(Symbol(I)) == Text)
      return Symbol(I);
  return Symbol();
}

std::set<Symbol> findAll(const SymbolTable &Syms,
                         std::initializer_list<const char *> Names) {
  std::set<Symbol> Out;
  for (const char *N : Names)
    if (Symbol S = findSymbol(Syms, N); S.isValid())
      Out.insert(S);
  return Out;
}

using Site = std::pair<ProcId, NodeId>;

/// Runs one domain in \p Mode through the shared driver and normalizes
/// the results: report sites (fact-embedded sites plus the observation
/// manifest) and non-report facts at main's exit. \p RS maps a state to
/// its report site (nullopt for non-report states); \p FS renders a
/// non-report, non-Lambda state.
template <typename AN, typename ReportSiteFn, typename FactStrFn>
DomainRunResult runModeT(const typename AN::Context &Ctx, DomainMode Mode,
                         uint64_t K, uint64_t Theta, unsigned Threads,
                         RunLimits Limits, ReportSiteFn RS, FactStrFn FS) {
  using State = typename AN::State;
  const Program &Prog = Ctx.program();
  DomainRunResult R;
  auto Report = [&](const State &S) {
    std::optional<Site> Where = RS(S);
    if (Where)
      R.Reports.insert(*Where);
    return Where.has_value();
  };
  auto AtMainExit = [&](const State &S) {
    if (!Report(S) && !AN::isLambda(S))
      R.ExitFacts.insert(FS(S));
  };

  if (Mode == DomainMode::Bu) {
    runPureBu<AN>(Ctx, Limits, Threads, R,
                  [&](const typename RelationalSolver<AN>::Summary &Main) {
                    // Observation relations reach *internal* points, so
                    // only their reports count, never as exit facts.
                    forEachMainOutput<AN>(Ctx, Main, AtMainExit, Report);
                  });
    return R;
  }

  typename TabulationSolver<AN>::Config Cfg;
  Cfg.K = Mode == DomainMode::Td ? NoBuTrigger : K;
  Cfg.Theta = Mode == DomainMode::Td ? 1 : Theta;
  Cfg.BuThreads = Threads;
  const NodeId ExitN = Prog.proc(Prog.mainProc()).exit();
  runTabulation<AN>(Ctx, Cfg, Limits, R,
                    [&](const TabulationSolver<AN> &Solver) {
                      Solver.forEachFact([&](ProcId P, NodeId N,
                                             const State &, const State &Cur) {
                        if (P == Prog.mainProc() && N == ExitN)
                          AtMainExit(Cur);
                        else
                          Report(Cur);
                      });
                      Solver.forEachObserved(
                          [&](ProcId, NodeId, const State &S) { Report(S); });
                    });
  return R;
}

std::unique_ptr<ifds::IfdsProblem> makeProblem(const std::string &Domain,
                                               const Program &Prog) {
  if (Domain == "taint")
    return std::make_unique<ifds::TaintProblem>(
        Prog, taintSourceClasses(Prog), taintSinkMethods(Prog));
  if (Domain == "nullderef")
    return std::make_unique<ifds::NullDerefProblem>(Prog);
  if (Domain == "reachdefs")
    return std::make_unique<ifds::ReachingDefsProblem>(Prog);
  return nullptr;
}

} // namespace

std::set<Symbol> clients::taintSourceClasses(const Program &Prog) {
  return findAll(Prog.symbols(), {"File", "Source"});
}

std::set<Symbol> clients::taintSinkMethods(const Program &Prog) {
  return findAll(Prog.symbols(), {"open", "sink"});
}

DomainRunResult clients::runClientDomain(const std::string &Domain,
                                         const Program &Prog,
                                         DomainMode Mode, uint64_t K,
                                         uint64_t Theta, unsigned Threads,
                                         RunLimits Limits) {
  if (Domain == "interval") {
    interval::IvContext Ctx(Prog);
    auto RS = [](const interval::IvFact &F) -> std::optional<Site> {
      if (F.K == interval::IvFact::Kind::Under)
        return Site{F.P, F.N};
      return std::nullopt;
    };
    auto FS = [&Prog](const interval::IvFact &F) { return F.str(Prog); };
    return runModeT<interval::IvAnalysis>(Ctx, Mode, K, Theta, Threads,
                                          Limits, RS, FS);
  }

  std::unique_ptr<ifds::IfdsProblem> Pb = makeProblem(Domain, Prog);
  if (!Pb)
    throw std::runtime_error("unknown analysis domain '" + Domain + "'");
  ifds::IfdsContext Ctx(Prog, *Pb);
  auto RS = [&Pb](const ifds::IfdsFact &F) -> std::optional<Site> {
    ProcId P;
    NodeId N;
    if (Pb->reportSite(F.Id, P, N))
      return Site{P, N};
    return std::nullopt;
  };
  auto FS = [&Pb](const ifds::IfdsFact &F) { return Pb->factText(F.Id); };
  return runModeT<ifds::IfdsAnalysis>(Ctx, Mode, K, Theta, Threads, Limits,
                                      RS, FS);
}
