//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-client oracle campaigns and the client reproducer corpus.
/// Each registered domain runs a 40-seed fuzz campaign through the full
/// config matrix (soundness against its concrete witness, TD coincidence
/// for SWIFT at (k, theta) x threads {1,2,4}, BU agreement, thread
/// determinism) expecting zero violations; the checked-in corpus under
/// tests/corpus/clients/ must stay clean on the fixed analyses and must
/// still trip the oracle when its recorded fault is re-injected.
///
/// SWIFT_CORPUS_DIR is injected by tests/CMakeLists.txt.
///
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"
#include "clients/TestHooks.h"
#include "difftest/DomainOracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace swift;
using namespace swift::difftest;

namespace {

DomainOracleOptions oracleOptions() {
  DomainOracleOptions OO;
  OO.Limits.MaxSteps = 3'000'000;
  OO.Limits.MaxSeconds = 60.0;
  OO.Schedules = 4;
  return OO;
}

void runCampaignFor(const std::string &Domain) {
  CampaignOptions Opts;
  Opts.FirstSeed = 1;
  Opts.NumSeeds = 40;
  Opts.OutDir = ""; // No reproducer files from the test run.
  Opts.ReduceViolations = false;
  std::ostringstream Log;
  CampaignResult R =
      runCampaign(Opts, domainOracle(Domain, oracleOptions()), Log);
  EXPECT_EQ(R.SeedsRun, 40u);
  EXPECT_EQ(R.ExhaustedSeeds, 0u) << Log.str();
  for (const SeedReport &S : R.BadSeeds)
    ADD_FAILURE() << Domain << " seed " << S.Seed << ": ["
                  << checkKindName(S.First.Kind) << "] " << S.First.Config
                  << ": " << S.First.Detail;
}

TEST(ClientCampaign, Taint) { runCampaignFor("taint"); }
TEST(ClientCampaign, NullDeref) { runCampaignFor("nullderef"); }
TEST(ClientCampaign, ReachingDefs) { runCampaignFor("reachdefs"); }
TEST(ClientCampaign, Interval) { runCampaignFor("interval"); }

//===----------------------------------------------------------------------===//
// Client corpus: clean when fixed, caught when re-injected
//===----------------------------------------------------------------------===//

struct CorpusEntry {
  std::string Path;
  std::string Domain; ///< From the "# domain:" header.
  std::string Kind;   ///< From the "# violation:" header.
};

std::vector<CorpusEntry> clientCorpus() {
  std::vector<CorpusEntry> Out;
  std::filesystem::path Dir =
      std::filesystem::path(SWIFT_CORPUS_DIR) / "clients";
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".swiftir")
      continue;
    CorpusEntry E;
    E.Path = Entry.path().string();
    std::ifstream IS(E.Path);
    std::string Line;
    while (std::getline(IS, Line)) {
      if (Line.rfind("# domain: ", 0) == 0)
        E.Domain = Line.substr(10);
      else if (Line.rfind("# violation: ", 0) == 0)
        E.Kind = Line.substr(13, Line.find(' ', 13) - 13);
    }
    Out.push_back(std::move(E));
  }
  std::sort(Out.begin(), Out.end(),
            [](const CorpusEntry &A, const CorpusEntry &B) {
              return A.Path < B.Path;
            });
  return Out;
}

TEST(ClientCorpus, OneReproducerPerDomain) {
  std::vector<CorpusEntry> Corpus = clientCorpus();
  for (const std::string &Domain : clients::clientDomainNames()) {
    bool Found = false;
    for (const CorpusEntry &E : Corpus)
      Found |= E.Domain == Domain;
    EXPECT_TRUE(Found) << "no corpus reproducer for " << Domain;
  }
}

TEST(ClientCorpus, CleanOnTheFixedAnalyses) {
  for (const CorpusEntry &E : clientCorpus()) {
    SCOPED_TRACE(E.Path);
    ASSERT_FALSE(E.Domain.empty()) << "missing '# domain:' header";
    OracleResult R =
        replayFile(E.Path, domainOracle(E.Domain, oracleOptions()));
    EXPECT_GT(R.RunsDone, 0u);
    for (const Violation &V : R.Violations)
      ADD_FAILURE() << "[" << checkKindName(V.Kind) << "] " << V.Config
                    << ": " << V.Detail;
  }
}

TEST(ClientCorpus, StillTripTheOracleUnderTheInjectedFault) {
  for (const CorpusEntry &E : clientCorpus()) {
    SCOPED_TRACE(E.Path);
    ASSERT_FALSE(E.Domain.empty()) << "missing '# domain:' header";
    ASSERT_FALSE(E.Kind.empty()) << "missing '# violation:' header";
    ASSERT_TRUE(clients::test::injectDomainBug(E.Domain, true));
    OracleResult R =
        replayFile(E.Path, domainOracle(E.Domain, oracleOptions()));
    clients::test::injectDomainBug(E.Domain, false);
    bool Found = false;
    for (const Violation &V : R.Violations)
      Found |= checkKindName(V.Kind) == E.Kind;
    EXPECT_TRUE(Found) << "expected a " << E.Kind << " violation, got "
                       << R.Violations.size() << " other(s)";
  }
}

} // namespace
