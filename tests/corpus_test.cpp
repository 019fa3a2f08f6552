//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the checked-in reproducer corpus (tests/corpus/*.swiftir).
/// Each file was produced by `swift-difftest --inject-bug` and then
/// delta-debugged, so it encodes a regression the oracle once caught:
///
///  * replayed as-is the analyses are correct, so the oracle is clean —
///    this pins down that the *current* analyses agree on these programs;
///  * replayed with the injected transfer-function fault re-enabled, the
///    oracle must report a violation of the kind recorded in the file's
///    `# violation:` header — this pins down that the oracle still
///    catches the divergence the file was reduced for.
///
/// SWIFT_CORPUS_DIR is injected by tests/CMakeLists.txt.
///
//===----------------------------------------------------------------------===//

#include "difftest/Difftest.h"
#include "typestate/Transfer.h"

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

struct InjectBugScope {
  InjectBugScope() { test::InjectTsCallWeakUpdateBug.store(true); }
  ~InjectBugScope() { test::InjectTsCallWeakUpdateBug.store(false); }
};

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SWIFT_CORPUS_DIR))
    if (Entry.path().extension() == ".swiftir")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Extracts KIND from the reproducer's "# violation: KIND config=..." line.
std::string headerViolationKind(const std::string &Path) {
  std::ifstream IS(Path);
  std::string Line;
  const std::string Prefix = "# violation: ";
  while (std::getline(IS, Line)) {
    if (Line.rfind(Prefix, 0) != 0)
      continue;
    std::string Rest = Line.substr(Prefix.size());
    return Rest.substr(0, Rest.find(' '));
  }
  return "";
}

/// Step-only budgets keep the replay deterministic; the reduced programs
/// are tiny, so none of these limits is ever approached.
OracleOptions replayOptions() {
  OracleOptions OO;
  OO.Limits.MaxSteps = 3'000'000;
  OO.Limits.MaxSeconds = 3600.0;
  OO.Schedules = 4;
  return OO;
}

TEST(CorpusTest, CorpusIsNonEmpty) {
  EXPECT_GE(corpusFiles().size(), 2u);
}

TEST(CorpusTest, ReproducersAreCleanOnTheFixedAnalyses) {
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    OracleResult R = replayFile(Path, typestateOracle(replayOptions()));
    EXPECT_GT(R.RunsDone, 0u);
    for (const Violation &V : R.Violations)
      ADD_FAILURE() << "[" << checkKindName(V.Kind) << "] " << V.Config
                    << ": " << V.Detail;
  }
}

TEST(CorpusTest, ReproducersStillTripTheOracleUnderTheInjectedFault) {
  InjectBugScope Bug;
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    std::string Want = headerViolationKind(Path);
    ASSERT_FALSE(Want.empty()) << "missing '# violation:' header";
    OracleResult R = replayFile(Path, typestateOracle(replayOptions()));
    bool Found = false;
    for (const Violation &V : R.Violations)
      Found |= checkKindName(V.Kind) == Want;
    EXPECT_TRUE(Found) << "expected a " << Want << " violation, got "
                       << R.Violations.size() << " other(s)";
  }
}

} // namespace
