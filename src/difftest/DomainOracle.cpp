//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "difftest/DomainOracle.h"

#include "clients/Concrete.h"

#include <optional>
#include <sstream>

using namespace swift;
using namespace swift::difftest;
using clients::DomainMode;
using clients::DomainRunResult;

namespace {

using Site = std::pair<ProcId, NodeId>;

std::string siteStr(const Program &Prog, const Site &S) {
  return Prog.symbols().text(Prog.proc(S.first).name()) + ":" +
         std::to_string(S.second);
}

std::string describeSites(const Program &Prog, const std::set<Site> &S,
                          size_t Max = 4) {
  std::ostringstream OS;
  OS << "{";
  size_t I = 0;
  for (const Site &E : S) {
    if (I == Max) {
      OS << " ...";
      break;
    }
    OS << (I ? " " : "") << siteStr(Prog, E);
    ++I;
  }
  OS << "}";
  return OS.str();
}

std::string describeFacts(const std::set<std::string> &S, size_t Max = 4) {
  std::ostringstream OS;
  OS << "{";
  size_t I = 0;
  for (const std::string &E : S) {
    if (I == Max) {
      OS << " ...";
      break;
    }
    OS << (I ? " " : "") << E;
    ++I;
  }
  OS << "}";
  return OS.str();
}

template <typename T>
std::set<T> setMinus(const std::set<T> &A, const std::set<T> &B) {
  std::set<T> Out;
  for (const T &E : A)
    if (!B.count(E))
      Out.insert(E);
  return Out;
}

/// Checks result equality between \p Got and the reference \p Ref,
/// appending one violation per differing component.
void checkAgainstRef(const Program &Prog, const DomainRunResult &Ref,
                     const DomainRunResult &Got, CheckKind Kind,
                     const std::string &Config,
                     std::vector<Violation> &Out) {
  if (Got.Reports != Ref.Reports) {
    std::ostringstream D;
    D << "report sites diverge from the TD reference: missing="
      << describeSites(Prog, setMinus(Ref.Reports, Got.Reports))
      << " extra="
      << describeSites(Prog, setMinus(Got.Reports, Ref.Reports));
    Out.push_back({Kind, Config, D.str()});
  }
  if (Got.ExitFacts != Ref.ExitFacts) {
    std::ostringstream D;
    D << "main-exit facts diverge from the TD reference: missing="
      << describeFacts(setMinus(Ref.ExitFacts, Got.ExitFacts)) << " extra="
      << describeFacts(setMinus(Got.ExitFacts, Ref.ExitFacts));
    Out.push_back({Kind, Config, D.str()});
  }
}

void checkDeterminism(const Program &Prog, const DomainRunResult &Base,
                      const std::string &BaseConfig,
                      const DomainRunResult &Got, const std::string &Config,
                      std::vector<Violation> &Out) {
  auto Mismatch = [&](const std::string &What) {
    Out.push_back({CheckKind::ThreadDeterminism, Config,
                   What + " differ from " + BaseConfig +
                       " (same configuration, different worker count)"});
  };
  if (Got.Reports != Base.Reports)
    Mismatch("report sites");
  else if (Got.ExitFacts != Base.ExitFacts)
    Mismatch("main-exit facts");
  else if (Got.TdSummaries != Base.TdSummaries)
    Mismatch("TD summary counts");
  else if (Got.BuRelations != Base.BuRelations)
    Mismatch("BU relation counts");
  (void)Prog;
}

} // namespace

OracleResult swift::difftest::runDomainOracle(const std::string &Domain,
                                             const Program &Prog,
                                             const DomainOracleOptions &Opts) {
  OracleResult R;

  auto run = [&](DomainMode Mode, uint64_t K, uint64_t Theta,
                 unsigned Threads) -> std::optional<DomainRunResult> {
    DomainRunResult RR = clients::runClientDomain(Domain, Prog, Mode, K,
                                                  Theta, Threads,
                                                  Opts.Limits);
    ++R.RunsDone;
    if (RR.Timeout) {
      ++R.RunsTimedOut;
      return std::nullopt;
    }
    return RR;
  };

  std::optional<DomainRunResult> Ref =
      run(DomainMode::Td, /*K=*/0, /*Theta=*/1, /*Threads=*/1);
  if (!Ref) {
    R.ReferenceTimedOut = true;
    return R;
  }

  // Soundness: witness schedules against the TD reference. One violation
  // per schedule and component at most — the first miss names the
  // schedule, further misses on the same schedule add no information.
  for (unsigned S = 0; S != Opts.Schedules; ++S) {
    clients::WitnessConfig WC;
    WC.Seed = Opts.InterpSeed + S;
    WC.MaxSteps = Opts.InterpMaxSteps;
    clients::WitnessResult W = clients::runClientWitness(Domain, Prog, WC);
    std::string Config = Domain + "/td/schedule" + std::to_string(S);
    for (const Site &E : W.Events)
      if (!Ref->Reports.count(E)) {
        R.Violations.push_back(
            {CheckKind::Soundness, Config,
             "concrete report at " + siteStr(Prog, E) +
                 " missing from the TD reference's report sites"});
        break;
      }
    if (W.ExitFactsValid)
      for (const std::string &F : W.ExitFacts)
        if (!Ref->ExitFacts.count(F)) {
          R.Violations.push_back(
              {CheckKind::Soundness, Config,
               "concrete exit fact '" + F +
                   "' missing from the TD reference's main-exit facts"});
          break;
        }
  }

  // SWIFT matrix: coincidence with TD at every (k, theta, threads), and
  // determinism across thread counts at fixed (k, theta).
  for (uint64_t K : {uint64_t(1), uint64_t(3)})
    for (uint64_t Theta : {uint64_t(1), uint64_t(2)}) {
      std::optional<DomainRunResult> Base;
      std::string BaseConfig;
      for (unsigned Th : {1u, 2u, 4u}) {
        std::optional<DomainRunResult> Got = run(DomainMode::Swift, K,
                                                 Theta, Th);
        if (!Got)
          continue;
        std::string Config = Domain + "/swift/k" + std::to_string(K) +
                             "/theta" + std::to_string(Theta) + "/th" +
                             std::to_string(Th);
        checkAgainstRef(Prog, *Ref, *Got, CheckKind::TdCoincidence, Config,
                        R.Violations);
        if (!Base) {
          Base = std::move(Got);
          BaseConfig = Config;
        } else {
          checkDeterminism(Prog, *Base, BaseConfig, *Got, Config,
                           R.Violations);
        }
      }
    }

  // Pure BU: agreement with TD, and determinism across worker counts.
  {
    std::optional<DomainRunResult> Base;
    std::string BaseConfig;
    for (unsigned Th : {1u, 2u, 4u}) {
      std::optional<DomainRunResult> Got =
          run(DomainMode::Bu, /*K=*/0, /*Theta=*/0, Th);
      if (!Got)
        continue;
      std::string Config = Domain + "/bu/th" + std::to_string(Th);
      checkAgainstRef(Prog, *Ref, *Got, CheckKind::BuAgreement, Config,
                      R.Violations);
      if (!Base) {
        Base = std::move(Got);
        BaseConfig = Config;
      } else {
        checkDeterminism(Prog, *Base, BaseConfig, *Got, Config,
                         R.Violations);
      }
    }
  }

  return R;
}

ProgramOracle swift::difftest::domainOracle(const std::string &Domain,
                                           const DomainOracleOptions &Opts) {
  return [Domain, Opts](const Program &Prog, uint64_t InterpSeed) {
    DomainOracleOptions OO = Opts;
    OO.InterpSeed = InterpSeed;
    return runDomainOracle(Domain, Prog, OO);
  };
}
