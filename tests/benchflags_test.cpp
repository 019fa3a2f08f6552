//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the benchmark binaries' flag parsing (bench/BenchCommon.h)
/// and the underlying strict numeric parsers (support/CliParse.h).
/// Regression coverage for the atoi-era bugs: "--threads=-1" silently
/// became UINT_MAX workers, "--budget=abc" became a 0-second budget, and
/// misspelled flags were ignored entirely.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/CliParse.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace swift;

namespace {

/// Runs parseOptionsInto over \p Args (argv[0] supplied).
bool parse(std::vector<std::string> Args, bench::Options &O,
           std::string &Err) {
  Args.insert(Args.begin(), "bench-test");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return bench::parseOptionsInto(static_cast<int>(Argv.size()), Argv.data(),
                                 O, Err);
}

TEST(BenchFlagsTest, AcceptsValidFlags) {
  bench::Options O;
  std::string Err;
  ASSERT_TRUE(parse({"--budget=2.5", "--threads=8", "--bench=linear"}, O,
                    Err))
      << Err;
  EXPECT_EQ(O.BudgetSeconds, 2.5);
  EXPECT_EQ(O.Threads, 8u);
  EXPECT_EQ(O.Only, "linear");
  EXPECT_FALSE(O.ShowHelp);
}

TEST(BenchFlagsTest, JsonOutParsesStrictly) {
  bench::Options O;
  std::string Err;
  ASSERT_TRUE(parse({"--json-out=out/bench.json"}, O, Err)) << Err;
  EXPECT_EQ(O.JsonOut, "out/bench.json");

  // An empty path is an error, not a silently-disabled writer.
  bench::Options Empty;
  EXPECT_FALSE(parse({"--json-out="}, Empty, Err));
  EXPECT_NE(Err.find("--json-out"), std::string::npos) << Err;
  EXPECT_TRUE(Empty.JsonOut.empty());

  // Misspellings stay hard errors (the atoi-era lesson).
  for (const char *Flag :
       {"--json-out", "--jsonout=x", "--json_out=x", "--json-out x"}) {
    bench::Options Bad;
    EXPECT_FALSE(parse({Flag}, Bad, Err)) << Flag;
    EXPECT_NE(Err.find("unknown flag"), std::string::npos) << Err;
  }
}

TEST(BenchFlagsTest, BenchFilterAcceptsCommaLists) {
  bench::Options O;
  std::string Err;
  ASSERT_TRUE(parse({"--bench=jpat-p,elevator,javasrc-p"}, O, Err)) << Err;
  EXPECT_TRUE(bench::matchesOnly(O, "jpat-p"));
  EXPECT_TRUE(bench::matchesOnly(O, "elevator"));
  EXPECT_TRUE(bench::matchesOnly(O, "javasrc-p"));
  // Entries are exact names, not substrings.
  EXPECT_FALSE(bench::matchesOnly(O, "jpat"));
  EXPECT_FALSE(bench::matchesOnly(O, "javasrc"));
  EXPECT_FALSE(bench::matchesOnly(O, "avrora"));

  bench::Options Single;
  ASSERT_TRUE(parse({"--bench=avrora"}, Single, Err)) << Err;
  EXPECT_TRUE(bench::matchesOnly(Single, "avrora"));
  EXPECT_FALSE(bench::matchesOnly(Single, "avr"));

  bench::Options None;
  ASSERT_TRUE(parse({}, None, Err)) << Err;
  EXPECT_TRUE(bench::matchesOnly(None, "anything"));
}

TEST(BenchFlagsTest, DefaultsSurviveEmptyCommandLine) {
  bench::Options O;
  std::string Err;
  ASSERT_TRUE(parse({}, O, Err)) << Err;
  EXPECT_EQ(O.BudgetSeconds, 15.0);
  EXPECT_EQ(O.Threads, 1u);
  EXPECT_TRUE(O.Only.empty());
}

TEST(BenchFlagsTest, HelpSetsFlagInsteadOfParsingFurther) {
  bench::Options O;
  std::string Err;
  ASSERT_TRUE(parse({"--help"}, O, Err)) << Err;
  EXPECT_TRUE(O.ShowHelp);
}

TEST(BenchFlagsTest, RejectsMalformedNumerics) {
  // Each case must fail with a message naming the offending value; none may
  // silently clamp, wrap, or zero the option.
  const char *Bad[] = {
      "--threads=-1",   // negative: atoi would have yielded huge unsigned
      "--threads=0",    // below the [1, 1024] range
      "--threads=4096", // above the range
      "--threads=x",    // not a number
      "--threads=2x",   // trailing garbage
      "--threads=",     // empty value
      "--budget=abc",   // not a number
      "--budget=-3",    // negative seconds
      "--budget=1e",    // truncated exponent
      "--budget=",      // empty value
  };
  for (const char *Flag : Bad) {
    bench::Options O;
    std::string Err;
    EXPECT_FALSE(parse({Flag}, O, Err)) << Flag;
    EXPECT_NE(Err.find('\''), std::string::npos)
        << "error should quote the bad value: " << Err;
  }
}

TEST(BenchFlagsTest, RejectsUnknownFlags) {
  for (const char *Flag :
       {"--thread=2", "--budgets=1", "-threads=2", "bench", "--"}) {
    bench::Options O;
    std::string Err;
    EXPECT_FALSE(parse({Flag}, O, Err)) << Flag;
    EXPECT_NE(Err.find("unknown flag"), std::string::npos) << Err;
  }
}

TEST(BenchFlagsTest, LaterFlagsOverrideEarlier) {
  bench::Options O;
  std::string Err;
  ASSERT_TRUE(parse({"--threads=2", "--threads=3"}, O, Err)) << Err;
  EXPECT_EQ(O.Threads, 3u);
}

TEST(CliParseTest, ParseU64) {
  uint64_t V = 7;
  EXPECT_TRUE(cli::parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(cli::parseU64("18446744073709551615", V)); // UINT64_MAX
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_FALSE(cli::parseU64("18446744073709551616", V)); // overflow
  EXPECT_FALSE(cli::parseU64("", V));
  EXPECT_FALSE(cli::parseU64("-1", V));
  EXPECT_FALSE(cli::parseU64("12a", V));
  // A single digit above a small maximum must not wrap past the bound.
  EXPECT_TRUE(cli::parseU64("2", V, 2));
  EXPECT_FALSE(cli::parseU64("3", V, 2));
  EXPECT_FALSE(cli::parseU64("7", V, 1));
}

TEST(CliParseTest, ParseUnsignedRange) {
  unsigned V = 7;
  EXPECT_TRUE(cli::parseUnsigned("4", V, 1, 1024));
  EXPECT_EQ(V, 4u);
  EXPECT_TRUE(cli::parseUnsigned("1", V, 1, 1024));
  EXPECT_TRUE(cli::parseUnsigned("1024", V, 1, 1024));
  EXPECT_FALSE(cli::parseUnsigned("0", V, 1, 1024));
  EXPECT_FALSE(cli::parseUnsigned("1025", V, 1, 1024));
  EXPECT_FALSE(cli::parseUnsigned("-2", V, 1, 1024));
}

TEST(CliParseTest, ParseNonNegDouble) {
  double V = 7;
  EXPECT_TRUE(cli::parseNonNegDouble("0", V));
  EXPECT_EQ(V, 0.0);
  EXPECT_TRUE(cli::parseNonNegDouble("2.5", V));
  EXPECT_EQ(V, 2.5);
  EXPECT_TRUE(cli::parseNonNegDouble("1e3", V));
  EXPECT_EQ(V, 1000.0);
  EXPECT_FALSE(cli::parseNonNegDouble("-0.5", V));
  EXPECT_FALSE(cli::parseNonNegDouble("nan", V));
  EXPECT_FALSE(cli::parseNonNegDouble("inf", V));
  EXPECT_FALSE(cli::parseNonNegDouble("1.5s", V));
  EXPECT_FALSE(cli::parseNonNegDouble("", V));
}

TEST(CliParseTest, MatchValueFlag) {
  std::string_view V;
  EXPECT_TRUE(cli::matchValueFlag("--budget=15", "--budget=", V));
  EXPECT_EQ(V, "15");
  EXPECT_TRUE(cli::matchValueFlag("--budget=", "--budget=", V));
  EXPECT_EQ(V, "");
  EXPECT_FALSE(cli::matchValueFlag("--budgets=15", "--budget=", V));
  EXPECT_FALSE(cli::matchValueFlag("--budget", "--budget=", V));
}

} // namespace
