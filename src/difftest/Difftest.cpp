//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "difftest/Difftest.h"

#include "ir/Dumper.h"
#include "support/AtomicFile.h"
#include "support/Timer.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace swift;
using namespace swift::difftest;

FuzzConfig swift::difftest::fuzzConfigForSeed(uint64_t Seed) {
  FuzzConfig FC;
  FC.Seed = Seed;
  FC.NumProcs = 2 + Seed % 5;        // 2..6 procedures besides main
  FC.StmtsPerProc = 6 + Seed % 11;   // 6..16
  FC.NumVars = 3 + Seed % 3;         // 3..5
  FC.NumFields = 1 + Seed % 2;       // 1..2
  FC.MaxDepth = 1 + Seed % 3;        // 1..3
  return FC;
}

std::string swift::difftest::writeReproducer(const std::string &OutDir,
                                             uint64_t Seed,
                                             const Violation &V,
                                             const std::string &ProgramText) {
  std::error_code EC;
  std::filesystem::create_directories(OutDir, EC);
  if (EC)
    return "";
  std::string Path =
      OutDir + "/seed" + std::to_string(Seed) + ".swiftir";
  std::ostringstream OS;
  OS << "# swift-difftest reproducer\n";
  OS << "# violation: " << checkKindName(V.Kind) << " config=" << V.Config
     << "\n";
  OS << "# detail: " << V.Detail << "\n";
  OS << "# fuzz seed: " << Seed << "\n";
  OS << ProgramText;
  // Atomic + write/flush/close-checked: a reproducer that exists is
  // complete, and a failed write never leaves a half-written decoy.
  try {
    writeFileAtomic(Path, OS.str(), "repro.save");
  } catch (const std::exception &) {
    return "";
  }
  return Path;
}

OracleResult swift::difftest::replayFile(const std::string &Path,
                                         const ProgramOracle &Oracle,
                                         uint64_t InterpSeed) {
  std::ifstream IS(Path);
  if (!IS)
    throw std::runtime_error("cannot open '" + Path + "'");
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  std::unique_ptr<Program> Prog = parseProgramText(Buf.str());
  return Oracle(*Prog, InterpSeed);
}

CampaignResult swift::difftest::runCampaign(const CampaignOptions &Opts,
                                            const ProgramOracle &Oracle,
                                            std::ostream &Log) {
  CampaignResult Res;
  Timer Wall;

  for (uint64_t Seed = Opts.FirstSeed;
       Seed != Opts.FirstSeed + Opts.NumSeeds; ++Seed) {
    if (Wall.seconds() > Opts.BudgetSeconds) {
      Res.StoppedOnBudget = true;
      break;
    }
    std::unique_ptr<Program> Prog =
        generateFuzzProgram(fuzzConfigForSeed(Seed));
    uint64_t InterpSeed = Seed * 1013 + 1; // decorrelate from the fuzz seed
    OracleResult OR = Oracle(*Prog, InterpSeed);
    ++Res.SeedsRun;
    if (OR.ReferenceTimedOut)
      ++Res.ExhaustedSeeds;
    if (OR.clean())
      continue;

    SeedReport Rep;
    Rep.Seed = Seed;
    Rep.First = OR.Violations.front();
    Rep.NumViolations = OR.Violations.size();
    Log << "seed " << Seed << ": " << OR.Violations.size()
        << " violation(s); first: [" << checkKindName(Rep.First.Kind)
        << "] " << Rep.First.Config << ": " << Rep.First.Detail << "\n";

    std::string Text;
    if (Opts.ReduceViolations) {
      ReduceResult RR =
          reduceViolation(*Prog, Rep.First.Kind, Oracle, InterpSeed,
                          Opts.ReduceMaxRounds, Opts.ReduceMaxRuns);
      Text = std::move(RR.Text);
      Rep.ReducedProcs = RR.NumProcs;
      Rep.ReducedStmts = RR.NumStmts;
      Log << "  reduced to " << RR.NumProcs << " proc(s), " << RR.NumStmts
          << " stmt(s) in " << RR.OracleRuns << " oracle runs\n";
    } else {
      Text = programToText(*Prog);
      Rep.ReducedProcs = Prog->numProcs();
    }

    if (!Opts.OutDir.empty()) {
      Rep.ReproPath = writeReproducer(Opts.OutDir, Seed, Rep.First, Text);
      if (!Rep.ReproPath.empty())
        Log << "  reproducer: " << Rep.ReproPath << "\n";
      else
        Log << "  failed to write reproducer under " << Opts.OutDir << "\n";
    }
    Res.BadSeeds.push_back(std::move(Rep));
  }
  return Res;
}
