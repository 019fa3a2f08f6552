//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of crash-safe, corruption-detecting persistence: the CRC32
/// primitive, the shared framing codec (support/Frame.h) driven through
/// all four persisted formats — swift-ckpt v2, the serve store, the shard
/// spool and the edit journal — by one mutation-fuzz harness (every
/// truncation past the magic is Truncated, every payload bit flip
/// Corrupt, every splice a typed rejection, a foreign version
/// VersionMismatch, every journal cut or flip replays exactly the records
/// before it), byte-for-byte round trips of golden files written by an
/// earlier build (tests/corpus/golden.*), legacy v1 compatibility, the
/// checked-in corrupted-checkpoint corpus (tests/corpus/*.swiftckpt),
/// atomic-save behavior under injected write faults (transient faults
/// retried, persistent faults surfaced with the old file intact), and
/// the parser count-sanity limits that make absurd section counts fail
/// fast.
///
//===----------------------------------------------------------------------===//

#include "framework/Tabulation.h"
#include "genprog/Fuzzer.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "serve/Journal.h"
#include "serve/Store.h"
#include "shard/Spool.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/Frame.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "typestate/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace swift;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures: a real checkpoint image and a scratch directory
//===----------------------------------------------------------------------===//

/// A genuine budget-exhausted TD checkpoint, built once: its v1 payload
/// text and the program/checkpoint pair it came from.
struct Fixture {
  std::unique_ptr<Program> Prog;
  TsCheckpoint Ckpt;
  std::string Payload; ///< swift-ckpt v1 text.
  std::string Image;   ///< v2 file image (framed payload).
};

const Fixture &fixture() {
  static Fixture F = [] {
    Fixture R;
    for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
      FuzzConfig FC;
      FC.Seed = Seed;
      FC.NumProcs = 3 + Seed % 4;
      FC.StmtsPerProc = 8 + Seed % 8;
      std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
      TsContext Ctx(*Prog, Prog->spec(0).name());

      GovernedRunOptions GO;
      GO.Config.K = NoBuTrigger;
      GO.Config.Theta = 1;
      GO.Limits.MaxSteps = 40;
      TsTabSnapshot Snap;
      GO.CheckpointOut = &Snap;
      TsGovernedResult G = runTypestateGoverned(Ctx, GO);
      if (!G.Partial)
        continue;

      R.Ckpt.Config = GO.Config;
      R.Ckpt.TrackedClass = Prog->symbols().text(Prog->spec(0).name());
      R.Ckpt.StepsConsumed = Snap.StepsConsumed;
      R.Ckpt.Snapshot = std::move(Snap);
      R.Prog = std::move(Prog);
      R.Payload = checkpointToText(*R.Prog, R.Ckpt);
      R.Image = frameCheckpointV2(R.Payload);
      return R;
    }
    std::fprintf(stderr, "persist_test: no seed produced a partial run\n");
    std::abort();
  }();
  return F;
}

/// Per-test scratch directory, removed on teardown.
class PersistTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::temp_directory_path() /
          ("swift_persist_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(Dir);
  }
  void TearDown() override {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    failpoint::disarmAll();
  }
  std::string path(const char *Name) const { return (Dir / Name).string(); }

  std::filesystem::path Dir;
};

std::string corpusBytes(const char *Name) {
  return readWholeFile(std::string(SWIFT_CORPUS_DIR) + "/" + Name);
}

/// A whole-file format under test: a good image and its full decoder
/// (frame check, then payload grammar).
struct FramedFormat {
  const char *Name;
  std::string Image;
  void (*Decode)(std::string_view);

  /// "<family> v<N> " — the part a cut must keep to be a Truncated file.
  size_t magicSize() const {
    return Image.find(' ', Image.find(' ') + 1) + 1;
  }
  size_t payloadBegin() const { return Image.find('\n') + 1; }
  size_t payloadEnd() const { return Image.size() - frame::TrailerSize; }
};

/// The checkpoint fixture, and the store and spool segment an earlier
/// build wrote (tests/corpus/golden.*).
const std::vector<FramedFormat> &framedFormats() {
  static const std::vector<FramedFormat> Formats = {
      {"swift-ckpt", fixture().Image,
       [](std::string_view B) { (void)parseCheckpointFile(B); }},
      {"swift-serve-store", corpusBytes("golden.swiftstore"),
       [](std::string_view B) { (void)serve::decodeStore(B); }},
      {"swift-spool", corpusBytes("golden.swiftspool"),
       [](std::string_view B) { (void)shard::decodeSegment(B); }},
  };
  return Formats;
}

/// The kind \p F's decoder rejects \p Bytes with; accepting them fails
/// the test.
LoadErrorKind kindOf(std::string_view Bytes,
                     const FramedFormat &F = framedFormats()[0]) {
  try {
    F.Decode(Bytes);
  } catch (const LoadError &E) {
    return E.kind();
  }
  ADD_FAILURE() << F.Name << ": expected a LoadError";
  return LoadErrorKind::IoError;
}

/// \p Image with the version digit of its magic replaced by '9'.
std::string withVersion9(std::string Image) {
  Image[Image.find(" v") + 2] = '9';
  return Image;
}

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

TEST(Crc32Test, KnownAnswerAndSensitivity) {
  // The IEEE check value: CRC32 of the ASCII digits "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Any single-bit change moves the CRC.
  std::string A = "swift checkpoint payload";
  std::string B = A;
  B[5] ^= 0x20;
  EXPECT_NE(crc32(A.data(), A.size()), crc32(B.data(), B.size()));
  // Seeding chains: crc(ab) == crc(b, seed=crc(a)).
  EXPECT_EQ(crc32("123456789", 9),
            crc32("456789", 6, crc32("123", 3)));
}

//===----------------------------------------------------------------------===//
// v2 framing and classification
//===----------------------------------------------------------------------===//

TEST(PersistFormatTest, FrameRoundTripsThroughParse) {
  const Fixture &F = fixture();
  ASSERT_EQ(F.Image.substr(0, 14), "swift-ckpt v2 ");
  ParsedCheckpoint PC = parseCheckpointFile(F.Image);
  EXPECT_EQ(PC.Checkpoint.TrackedClass, F.Ckpt.TrackedClass);
  EXPECT_EQ(PC.Checkpoint.StepsConsumed, F.Ckpt.StepsConsumed);
  // Nothing was lost: reprinting the parse reproduces the payload.
  EXPECT_EQ(checkpointToText(*PC.Prog, PC.Checkpoint), F.Payload);
}

TEST(PersistFormatTest, LegacyV1PayloadStillParses) {
  const Fixture &F = fixture();
  ParsedCheckpoint PC = parseCheckpointFile(F.Payload); // bare v1
  EXPECT_EQ(PC.Checkpoint.TrackedClass, F.Ckpt.TrackedClass);
}

TEST(PersistFormatTest, EveryTruncationIsTypedAndDetected) {
  // Every proper prefix of every format must be rejected with a typed
  // error; once the full "<family> v<N> " magic survives the cut,
  // specifically as Truncated (shorter cuts lose the magic itself and
  // classify as Truncated, Corrupt or VersionMismatch — still typed,
  // never accepted).
  for (const FramedFormat &F : framedFormats()) {
    SCOPED_TRACE(F.Name);
    for (size_t Cut = 0; Cut < F.Image.size(); ++Cut) {
      LoadErrorKind K = kindOf(std::string_view(F.Image).substr(0, Cut), F);
      if (Cut >= F.magicSize()) {
        EXPECT_EQ(K, LoadErrorKind::Truncated) << "cut at " << Cut;
      }
    }
  }
}

TEST(PersistFormatTest, EveryPayloadBitFlipIsCorrupt) {
  for (const FramedFormat &F : framedFormats()) {
    SCOPED_TRACE(F.Name);
    for (size_t I = 0; I < F.Image.size(); ++I) {
      std::string Mut = F.Image;
      Mut[I] = static_cast<char>(Mut[I] ^ (1u << (I % 8)));
      LoadErrorKind K = kindOf(Mut, F); // must throw typed, never crash
      if (I >= F.payloadBegin() && I < F.payloadEnd()) {
        EXPECT_EQ(K, LoadErrorKind::Corrupt)
            << "payload flip at " << I << " escaped the CRC";
      }
    }
  }
}

TEST(PersistFormatTest, DuplicatedSectionWithValidCrcIsCorrupt) {
  // Re-frame a payload with a duplicated line: the CRC validates (we
  // computed it over the mutant), so only the payload parser can object.
  const Fixture &F = fixture();
  size_t StepsAt = F.Payload.find("\nsteps ");
  ASSERT_NE(StepsAt, std::string::npos);
  size_t LineEnd = F.Payload.find('\n', StepsAt + 1);
  std::string Dup = F.Payload.substr(0, LineEnd + 1) +
                    F.Payload.substr(StepsAt + 1, LineEnd - StepsAt) +
                    F.Payload.substr(LineEnd + 1);
  EXPECT_EQ(kindOf(frameCheckpointV2(Dup)), LoadErrorKind::Corrupt);
}

TEST(PersistFormatTest, BlankCommentAndCrlfLinesAreCorrupt) {
  // The payload is read by the shared frame::Cursor, line for line: no
  // writer emits a blank line, a '#' comment line or a CRLF line ending,
  // and a CRC-valid payload with any of them is rejected.
  const Fixture &F = fixture();
  size_t At = F.Payload.find("\nedges ");
  ASSERT_NE(At, std::string::npos);
  for (const char *Extra : {"\n", "# a comment\n"}) {
    std::string Mut = F.Payload;
    Mut.insert(At + 1, Extra);
    EXPECT_EQ(kindOf(frameCheckpointV2(Mut)), LoadErrorKind::Corrupt)
        << "inserted '" << Extra << "'";
  }
  std::string Crlf;
  for (char C : F.Payload)
    Crlf += C == '\n' ? std::string("\r\n") : std::string(1, C);
  EXPECT_EQ(kindOf(frameCheckpointV2(Crlf)), LoadErrorKind::Corrupt);
}

TEST(PersistFormatTest, UnsupportedVersionIsVersionMismatch) {
  EXPECT_EQ(kindOf("swift-ckpt v3 12\nfuture stuff\n"),
            LoadErrorKind::VersionMismatch);
  EXPECT_EQ(kindOf("swift-ckpt v99\n"), LoadErrorKind::VersionMismatch);
  for (const FramedFormat &F : framedFormats())
    EXPECT_EQ(kindOf(withVersion9(F.Image), F),
              LoadErrorKind::VersionMismatch)
        << F.Name;
}

TEST(PersistFormatTest, JunkAndEmptyAreTyped) {
  EXPECT_EQ(kindOf(""), LoadErrorKind::Truncated);
  EXPECT_EQ(kindOf("not a checkpoint at all\n"), LoadErrorKind::Corrupt);
  // Trailing garbage after a valid trailer: the frame no longer matches
  // its declared extent.
  EXPECT_EQ(kindOf(fixture().Image + "extra"), LoadErrorKind::Corrupt);
}

//===----------------------------------------------------------------------===//
// Mutation fuzz loop
//===----------------------------------------------------------------------===//

TEST(PersistFuzzTest, FiftySeedsOfMutationsNeverCrashAndClassify) {
  for (const FramedFormat &F : framedFormats()) {
    SCOPED_TRACE(F.Name);
    uint64_t Truncations = 0, Flips = 0, Splices = 0;
    for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
      Rng R(Seed * 0x9e3779b9u);
      std::string Mut = F.Image;
      switch (R.below(3)) {
      case 0: { // truncate
        Mut.resize(R.below(Mut.size()));
        ++Truncations;
        LoadErrorKind K = kindOf(Mut, F);
        if (Mut.size() >= F.magicSize()) {
          EXPECT_EQ(K, LoadErrorKind::Truncated) << "seed " << Seed;
        }
        break;
      }
      case 1: { // flip one bit
        size_t I = R.below(Mut.size());
        char Old = Mut[I];
        Mut[I] = static_cast<char>(Old ^ (1u << R.below(8)));
        ++Flips;
        LoadErrorKind K = kindOf(Mut, F);
        if (I >= F.payloadBegin() && I < F.payloadEnd()) {
          EXPECT_EQ(K, LoadErrorKind::Corrupt) << "seed " << Seed;
        }
        break;
      }
      default: { // duplicate a random slice in place (grows the file)
        size_t At = R.below(Mut.size());
        size_t Len = 1 + R.below(std::min<size_t>(64, Mut.size() - At));
        Mut.insert(At, Mut.substr(At, Len));
        ++Splices;
        // Typed rejection is the contract; the kind depends on where the
        // splice landed.
        (void)kindOf(Mut, F);
        break;
      }
      }
    }
    // The switch is seed-driven; make sure all three mutators actually
    // ran.
    EXPECT_GT(Truncations, 5u);
    EXPECT_GT(Flips, 5u);
    EXPECT_GT(Splices, 5u);
  }
}

//===----------------------------------------------------------------------===//
// Checked-in corrupted-checkpoint corpus
//===----------------------------------------------------------------------===//

TEST(PersistCorpusTest, ReplaysEveryCheckedInCheckpoint) {
  // File-name prefixes encode the expected outcome: good-*, legacy-*,
  // async-* and threads4-* load; truncated-*, bitflip-*, dup-*,
  // badfield-* (a field outside its grammar: a signed number, an
  // out-of-range thread count, theta 0, a row that breaks what the solver
  // asserts), badversion-* raise the matching typed error.
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SWIFT_CORPUS_DIR))
    if (Entry.path().extension() == ".swiftckpt")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 9u) << "corpus lost its checkpoint files";

  for (const std::string &Path : Files) {
    std::string Stem = std::filesystem::path(Path).stem().string();
    SCOPED_TRACE(Path);
    if (Stem.rfind("good-", 0) == 0 || Stem.rfind("legacy-", 0) == 0 ||
        Stem.rfind("async-", 0) == 0 || Stem.rfind("threads4-", 0) == 0) {
      ParsedCheckpoint PC = loadCheckpointFile(Path);
      EXPECT_FALSE(PC.Checkpoint.TrackedClass.empty());
      continue;
    }
    LoadErrorKind Want = LoadErrorKind::Corrupt;
    if (Stem.rfind("truncated-", 0) == 0)
      Want = LoadErrorKind::Truncated;
    else if (Stem.rfind("badversion-", 0) == 0)
      Want = LoadErrorKind::VersionMismatch;
    else
      ASSERT_TRUE(Stem.rfind("bitflip-", 0) == 0 ||
                  Stem.rfind("dup-", 0) == 0 ||
                  Stem.rfind("badfield-", 0) == 0)
          << "unrecognized corpus file name scheme";
    try {
      (void)loadCheckpointFile(Path);
      ADD_FAILURE() << "corrupted checkpoint accepted";
    } catch (const LoadError &E) {
      EXPECT_EQ(E.kind(), Want) << E.what();
    }
  }
}

TEST(PersistCorpusTest, LoadableCheckpointsReencodeByteForByte) {
  // Re-encoding a loaded golden reproduces its bytes: v2 files with their
  // frame, legacy v1 files as bare text.
  for (const char *Name : {"good-v2.swiftckpt", "legacy-v1.swiftckpt"}) {
    SCOPED_TRACE(Name);
    std::string Bytes = corpusBytes(Name);
    ParsedCheckpoint PC = parseCheckpointFile(Bytes);
    std::string Text = checkpointToText(*PC.Prog, PC.Checkpoint);
    if (std::string_view(Name).substr(0, 6) == "legacy")
      EXPECT_EQ(Text, Bytes);
    else
      EXPECT_EQ(frameCheckpointV2(Text), Bytes);
  }
}

/// Resumes \p PC, a checkpoint of a run on seed15.swiftir, without
/// limits and expects the uninterrupted run's error sites (seed15 reaches
/// one) and main-exit states.
void expectResumeMatchesUninterrupted(const ParsedCheckpoint &PC) {
  TsContext Ctx(*PC.Prog,
                PC.Prog->symbols().intern(PC.Checkpoint.TrackedClass));
  GovernedRunOptions RO;
  RO.Config = PC.Checkpoint.Config;
  RO.ResumeFrom = &PC.Checkpoint.Snapshot;
  TsGovernedResult Resumed = runTypestateGoverned(Ctx, RO);
  GovernedRunOptions FO;
  FO.Config = PC.Checkpoint.Config;
  TsGovernedResult Full = runTypestateGoverned(Ctx, FO);
  ASSERT_FALSE(Resumed.Partial);
  ASSERT_FALSE(Full.Partial);
  EXPECT_FALSE(Full.Run.ErrorSites.empty());
  EXPECT_EQ(Resumed.Run.ErrorSites, Full.Run.ErrorSites);
  EXPECT_EQ(Resumed.Run.MainExit, Full.Run.MainExit);
}

TEST(PersistCorpusTest, AsyncCheckpointResumesSynchronously) {
  // Written by swift-analyze --mode=swift --k=0 --async --steps=100 on
  // seed15.swiftir while asynchronous bottom-up runs still existed, so
  // its config line reads "async 1". The field is still read and
  // range-checked but no longer selects anything: re-encoding writes
  // "async 0" and changes nothing else.
  std::string Bytes = corpusBytes("async-v2.swiftckpt");
  ParsedCheckpoint PC = parseCheckpointFile(Bytes);
  std::string Text = checkpointToText(*PC.Prog, PC.Checkpoint);
  size_t At = Text.find(" async 0 ");
  ASSERT_NE(At, std::string::npos);
  EXPECT_EQ(frameCheckpointV2(Text.replace(At, 9, " async 1 ")), Bytes);

  // The snapshot holds only top-down state, so it resumes synchronously
  // to the uninterrupted run's results.
  expectResumeMatchesUninterrupted(PC);
}

TEST(PersistCorpusTest, ThreadsFourCheckpointResumesOnOneThread) {
  // Written by swift-analyze --mode=swift --k=0 --theta=2 --threads=4
  // --steps=100 on seed15.swiftir while triggered bottom-up solves could
  // run on several threads, so its config line reads "threads 4". The
  // field is still read and range-checked but no longer selects anything:
  // re-encoding writes "threads 1" and changes nothing else.
  std::string Bytes = corpusBytes("threads4-v2.swiftckpt");
  ParsedCheckpoint PC = parseCheckpointFile(Bytes);
  std::string Text = checkpointToText(*PC.Prog, PC.Checkpoint);
  size_t At = Text.find(" threads 1\n");
  ASSERT_NE(At, std::string::npos);
  EXPECT_EQ(frameCheckpointV2(Text.replace(At, 11, " threads 4\n")), Bytes);

  // The snapshot holds only top-down state, so it resumes on one thread
  // to the uninterrupted run's results.
  expectResumeMatchesUninterrupted(PC);
}

TEST(PersistCorpusTest, ManifestZeroCheckpointResumesWithTheManifest) {
  // Runs without the observation manifest wrote "manifest 0"; that mode
  // is gone. async-v2 is the corpus's hybrid (k=0, theta=2) checkpoint;
  // with its config line rewritten to "manifest 0" it still loads (the
  // field is range-checked but selects nothing), re-encoding writes
  // "manifest 1" and changes nothing else, and it resumes with the
  // manifest.
  std::string Bytes = corpusBytes("async-v2.swiftckpt");
  const std::string Payload(frame::decode("swift-ckpt v2 ", Bytes));
  const std::string Fields = " manifest 1 async 1 ";
  size_t At = Payload.find(Fields);
  ASSERT_NE(At, std::string::npos);
  auto WithConfig = [&](const char *NewFields) {
    return std::string(Payload).replace(At, Fields.size(), NewFields);
  };
  ParsedCheckpoint PC = parseCheckpointFile(
      frameCheckpointV2(WithConfig(" manifest 0 async 1 ")));
  EXPECT_EQ(checkpointToText(*PC.Prog, PC.Checkpoint),
            WithConfig(" manifest 1 async 0 "));
  expectResumeMatchesUninterrupted(PC);

  // The field is still a flag: anything but 0 or 1 is corrupt.
  try {
    (void)parseCheckpointFile(
        frameCheckpointV2(WithConfig(" manifest 2 async 1 ")));
    ADD_FAILURE() << "manifest 2 accepted";
  } catch (const LoadError &E) {
    EXPECT_EQ(E.kind(), LoadErrorKind::Corrupt) << E.what();
  }
}

//===----------------------------------------------------------------------===//
// Golden files and the edit journal
//===----------------------------------------------------------------------===//

/// Writes \p Bytes as a journal, replays it, and returns the records;
/// \p After receives the file as replay left it.
std::vector<serve::Journal::Record> replayBytes(const std::string &Path,
                                                const std::string &Bytes,
                                                std::string &After) {
  writeFileAtomic(Path, Bytes);
  std::vector<serve::Journal::Record> Recs =
      serve::Journal(Path).replayAndRepair();
  After = readWholeFile(Path);
  return Recs;
}

/// Record boundaries of a valid journal image: the end of the magic line,
/// then the end of each record.
std::vector<size_t> recordEnds(const std::vector<serve::Journal::Record> &Rs) {
  std::vector<size_t> Ends{serve::Journal::Magic.size()};
  for (const serve::Journal::Record &R : Rs)
    Ends.push_back(Ends.back() + serve::Journal::encodeRecord(R).size());
  return Ends;
}

TEST_F(PersistTest, GoldenFilesRoundTripByteForByte) {
  // Written by an earlier build: the formats must not have moved.
  std::string Store = corpusBytes("golden.swiftstore");
  serve::ParsedStore PS = serve::decodeStore(Store);
  EXPECT_EQ(serve::encodeStore(*PS.Prog, PS.TrackedClass, PS.Procs), Store);

  std::string Spool = corpusBytes("golden.swiftspool");
  EXPECT_EQ(shard::encodeSegment(shard::decodeSegment(Spool)), Spool);

  std::string Log = corpusBytes("golden.swiftjournal");
  std::string After;
  std::vector<serve::Journal::Record> Recs =
      replayBytes(path("j.log"), Log, After);
  ASSERT_EQ(Recs.size(), 3u);
  EXPECT_EQ(After, Log) << "replay of a clean journal modified it";
  std::string Re(serve::Journal::Magic);
  for (const serve::Journal::Record &R : Recs)
    Re += serve::Journal::encodeRecord(R);
  EXPECT_EQ(Re, Log);
}

TEST_F(PersistTest, JournalEveryCutReplaysTheRecordsBeforeIt) {
  const std::string Log = corpusBytes("golden.swiftjournal");
  std::string After;
  const std::vector<serve::Journal::Record> All =
      replayBytes(path("j.log"), Log, After);
  ASSERT_EQ(All.size(), 3u);
  const std::vector<size_t> Ends = recordEnds(All);
  for (size_t Cut = 0; Cut <= Log.size(); ++Cut) {
    std::string Prefix = Log.substr(0, Cut);
    if (Cut < serve::Journal::Magic.size()) {
      // Not a journal yet: nothing to replay, nothing repaired.
      try {
        (void)replayBytes(path("j.log"), Prefix, After);
        ADD_FAILURE() << "cut magic line accepted at " << Cut;
      } catch (const LoadError &E) {
        EXPECT_EQ(E.kind(), LoadErrorKind::Truncated) << "cut at " << Cut;
      }
      continue;
    }
    // Exactly the records that end at or before the cut survive, and the
    // file is truncated to the last of them.
    size_t Complete = 0;
    while (Complete + 1 < Ends.size() && Ends[Complete + 1] <= Cut)
      ++Complete;
    std::vector<serve::Journal::Record> Got =
        replayBytes(path("j.log"), Prefix, After);
    ASSERT_EQ(Got.size(), Complete) << "cut at " << Cut;
    for (size_t I = 0; I != Complete; ++I)
      EXPECT_EQ(Got[I].Body, All[I].Body) << "cut at " << Cut;
    EXPECT_EQ(After, Log.substr(0, Ends[Complete])) << "cut at " << Cut;
  }
}

TEST_F(PersistTest, JournalEveryFlipStopsAtTheDamagedRecord) {
  const std::string Log = corpusBytes("golden.swiftjournal");
  std::string After;
  const std::vector<size_t> Ends =
      recordEnds(replayBytes(path("j.log"), Log, After));
  for (size_t I = 0; I < Log.size(); ++I) {
    std::string Mut = Log;
    Mut[I] = static_cast<char>(Mut[I] ^ (1u << (I % 8)));
    if (I < serve::Journal::Magic.size()) {
      EXPECT_THROW((void)replayBytes(path("j.log"), Mut, After), LoadError)
          << "magic flip at " << I;
      continue;
    }
    // The record holding byte I and everything after it are dropped.
    size_t Damaged = 0;
    while (Ends[Damaged + 1] <= I)
      ++Damaged;
    EXPECT_EQ(replayBytes(path("j.log"), Mut, After).size(), Damaged)
        << "flip at " << I;
    EXPECT_EQ(After, Log.substr(0, Ends[Damaged])) << "flip at " << I;
  }
}

TEST_F(PersistTest, JournalWrongVersionIsVersionMismatch) {
  std::string After;
  try {
    (void)replayBytes(path("j.log"),
                      withVersion9(corpusBytes("golden.swiftjournal")),
                      After);
    FAIL() << "expected LoadError";
  } catch (const LoadError &E) {
    EXPECT_EQ(E.kind(), LoadErrorKind::VersionMismatch) << E.what();
  }
}

//===----------------------------------------------------------------------===//
// Atomic save/load under injected faults
//===----------------------------------------------------------------------===//

TEST_F(PersistTest, SaveLoadRoundTripsOnDisk) {
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  saveCheckpointFile(P, *F.Prog, F.Ckpt);
  EXPECT_EQ(readWholeFile(P), F.Image);
  ParsedCheckpoint PC = loadCheckpointFile(P);
  EXPECT_EQ(checkpointToText(*PC.Prog, PC.Checkpoint), F.Payload);
}

TEST_F(PersistTest, MissingFileIsIoError) {
  try {
    (void)loadCheckpointFile(path("nope.swiftckpt"));
    FAIL() << "expected LoadError";
  } catch (const LoadError &E) {
    EXPECT_EQ(E.kind(), LoadErrorKind::IoError);
  }
}

TEST_F(PersistTest, TransientWriteFaultIsRetriedAway) {
  // nth(1): only the first write chunk of the first attempt fails; the
  // retry goes clean and the save must succeed end to end.
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  failpoint::ScopedArm Arm("ckpt.save.write=nth(1)");
  saveCheckpointFile(P, *F.Prog, F.Ckpt);
  EXPECT_EQ(failpoint::fires("ckpt.save.write"), 1u);
  EXPECT_EQ(readWholeFile(P), F.Image);
}

TEST_F(PersistTest, PersistentFaultThrowsAndPreservesOldFile) {
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  saveCheckpointFile(P, *F.Prog, F.Ckpt); // the old, good file

  {
    failpoint::ScopedArm Arm("ckpt.save.rename=always");
    EXPECT_THROW(saveCheckpointFile(P, *F.Prog, F.Ckpt),
                 std::runtime_error);
    EXPECT_GE(failpoint::fires("ckpt.save.rename"), 3u); // all attempts
  }
  // The old file survived, byte for byte, and no temp litter remains.
  EXPECT_EQ(readWholeFile(P), F.Image);
  size_t Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    (void)E;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
}

TEST_F(PersistTest, InjectedReadFaultIsIoError) {
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  saveCheckpointFile(P, *F.Prog, F.Ckpt);
  failpoint::ScopedArm Arm("ckpt.load.read=always");
  try {
    (void)loadCheckpointFile(P);
    FAIL() << "expected LoadError";
  } catch (const LoadError &E) {
    EXPECT_EQ(E.kind(), LoadErrorKind::IoError);
  }
}

TEST_F(PersistTest, ProgramTextSaveIsAtomicToo) {
  const Fixture &F = fixture();
  std::string P = path("prog.swiftir");
  saveProgramTextFile(P, *F.Prog);
  std::string Old = readWholeFile(P);
  EXPECT_EQ(Old, programToText(*F.Prog));

  failpoint::ScopedArm Arm("ir.save.flush=always");
  EXPECT_THROW(saveProgramTextFile(P, *F.Prog), std::runtime_error);
  EXPECT_EQ(readWholeFile(P), Old);
}

//===----------------------------------------------------------------------===//
// Parser count-sanity limits
//===----------------------------------------------------------------------===//

TEST(PersistHardeningTest, AbsurdSectionCountsFailFastWithoutAllocating) {
  const Fixture &F = fixture();
  // Mutate each count-bearing section header to claim ~10^12 entries;
  // the parser must reject on the size sanity check (fast, no reserve).
  for (const char *Section : {"states ", "edges ", "summaries "}) {
    size_t At = F.Payload.find(std::string("\n") + Section);
    ASSERT_NE(At, std::string::npos) << Section;
    size_t NumBegin = At + 1 + std::string(Section).size();
    size_t LineEnd = F.Payload.find('\n', NumBegin);
    std::string Mut = F.Payload.substr(0, NumBegin) + "999999999999" +
                      F.Payload.substr(LineEnd);
    try {
      (void)parseCheckpointText(Mut);
      FAIL() << Section << "count 999999999999 accepted";
    } catch (const std::runtime_error &E) {
      EXPECT_NE(std::string(E.what()).find("exceeds"), std::string::npos)
          << "wrong rejection for " << Section << ": " << E.what();
    }
  }
}

TEST(PersistHardeningTest, AbsurdNodeCountInProgramTextFailsFast) {
  std::string Text = programToText(*fixture().Prog);
  size_t At = Text.find(" nodes ");
  ASSERT_NE(At, std::string::npos);
  size_t NumBegin = At + 7;
  size_t NumEnd = Text.find(' ', NumBegin);
  // In range for the numeric parser, absurd versus the input size: only
  // the count-sanity limit can reject it.
  std::string Mut =
      Text.substr(0, NumBegin) + "9999999" + Text.substr(NumEnd);
  try {
    (void)parseProgramText(Mut);
    FAIL() << "node count 9999999 accepted";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("exceeds"), std::string::npos)
        << E.what();
  }
}

} // namespace
