//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the support layer: symbol interning, the deterministic
/// PRNG, budgets, and the paper-style formatting helpers.
///
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Symbol.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

using namespace swift;

namespace {

TEST(SymbolTest, InterningIsStable) {
  SymbolTable T;
  Symbol A = T.intern("alpha");
  Symbol B = T.intern("beta");
  Symbol A2 = T.intern("alpha");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_TRUE(A.isValid());
  EXPECT_FALSE(Symbol().isValid());
  EXPECT_EQ(T.text(A), "alpha");
  EXPECT_EQ(T.size(), 2u);
  // Embedded content is preserved byte-for-byte.
  Symbol W = T.intern("we ird\tname");
  EXPECT_EQ(T.text(W), "we ird\tname");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng A(12345), B(12345);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(12346);
  bool Differs = false;
  for (int I = 0; I != 10; ++I)
    Differs |= A.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(RngTest, BoundsRespected) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 3000; ++I) {
    uint64_t V = R.below(7);
    EXPECT_LT(V, 7u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u); // all residues hit

  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
  EXPECT_TRUE(R.chance(1, 1));
  EXPECT_FALSE(R.chance(0, 5));
}

TEST(BudgetTest, StepBudgetExhausts) {
  Budget B(10, 1e9);
  for (int I = 0; I != 10; ++I)
    EXPECT_TRUE(B.step());
  EXPECT_FALSE(B.step());
  EXPECT_FALSE(B.step()); // stays exhausted
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.steps(), 11u);
}

TEST(BudgetTest, DefaultIsUnlimitedEnough) {
  Budget B;
  for (int I = 0; I != 100000; ++I)
    ASSERT_TRUE(B.step());
  EXPECT_FALSE(B.exhausted());
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(formatSeconds(0.91), "0.91s");
  EXPECT_EQ(formatSeconds(20.4), "20.4s");
  EXPECT_EQ(formatSeconds(284.0), "4m44s");
  EXPECT_EQ(formatSeconds(60.0), "1m0s");
  EXPECT_EQ(formatSeconds(119.6), "2m0s"); // carries into the minute
}

// Regression: millis() used to compute seconds() * 1000.0 through a
// double, dropping ticks near millisecond boundaries and losing integer
// precision entirely for counts past 2^53 (a ~104-day steady_clock span
// is ~9e12 ms; the double detour already misrounds far smaller values).
TEST(TimerTest, MillisCountsWholeTicksExactly) {
  using std::chrono::milliseconds;
  using std::chrono::nanoseconds;
  EXPECT_EQ(Timer::millisFor(nanoseconds(0)), 0u);
  EXPECT_EQ(Timer::millisFor(nanoseconds(999'999)), 0u);
  EXPECT_EQ(Timer::millisFor(milliseconds(1)), 1u);
  EXPECT_EQ(Timer::millisFor(milliseconds(1) - nanoseconds(1)), 0u);
  EXPECT_EQ(Timer::millisFor(milliseconds(999) + nanoseconds(999'999)),
            999u);
  // 999,999,999,999,999,999 ns is 999,999,999,999 whole ms; the double
  // path rounds it to exactly 1e9 seconds (the true value sits within
  // half an ulp of it), overcounting by a full millisecond.
  EXPECT_EQ(Timer::millisFor(nanoseconds(999'999'999'999'999'999)),
            999'999'999'999u);
  // A live timer agrees with its own seconds() to within one tick.
  Timer T;
  uint64_t Ms = T.millis();
  double Secs = T.seconds();
  EXPECT_LE(Ms, uint64_t(Secs * 1000.0) + 1);
}

TEST(FormatTest, Thousands) {
  EXPECT_EQ(Stats::formatThousands(0), "0");
  EXPECT_EQ(Stats::formatThousands(999), "999");
  EXPECT_EQ(Stats::formatThousands(6500), "6.5k");
  EXPECT_EQ(Stats::formatThousands(68500), "68.5k");
  EXPECT_EQ(Stats::formatThousands(319000), "319k");
  EXPECT_EQ(Stats::formatThousands(1357000), "1,357k");
}

TEST(StatsTest, CountersAccumulate) {
  Stats S;
  EXPECT_EQ(S.get("x"), 0u);
  ++S.counter("x");
  S.counter("x") += 4;
  EXPECT_EQ(S.get("x"), 5u);
  S.clear();
  EXPECT_EQ(S.get("x"), 0u);
}

TEST(StatsTest, InternedHandlesWorkAcrossInstances) {
  // A handle interned once addresses the same counter in every Stats
  // instance — that is what lets per-worker Stats merge by index.
  Stats::Counter C = Stats::id("handle.test");
  EXPECT_EQ(Stats::id("handle.test"), C); // stable
  Stats A, B;
  A.counter(C) += 3;
  B.counter(C) += 4;
  B.counter("handle.other") += 2;
  EXPECT_EQ(A.get("handle.test"), 3u);
  A.merge(B);
  EXPECT_EQ(A.get("handle.test"), 7u);
  EXPECT_EQ(A.get("handle.other"), 2u);
  EXPECT_EQ(B.get("handle.test"), 4u); // merge does not disturb the source

  // all() reports only counters that fired.
  auto All = A.all();
  EXPECT_EQ(All.at("handle.test"), 7u);
  EXPECT_EQ(All.count("never.fired"), 0u);
}

TEST(StatsTest, DefaultHandleIsInvalidAndRealIdsStartAtOne) {
  // Id 0 is reserved: a default-constructed handle is invalid and distinct
  // from every interned one, so it can never silently address whichever
  // counter happened to be interned first.
  Stats::Counter Default;
  EXPECT_FALSE(Default.isValid());
  Stats::Counter C = Stats::id("handle.reserved-zero");
  EXPECT_TRUE(C.isValid());
  EXPECT_NE(C, Default);
  EXPECT_EQ(Stats::Counter(), Default);
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
TEST(StatsDeathTest, BumpingDefaultHandleAsserts) {
  Stats S;
  Stats::Counter Default;
  EXPECT_DEATH(++S.counter(Default), "default-constructed Counter");
}
#endif

TEST(HashingTest, CombineHasNoMassCollisionsPastTwentyBits) {
  // Regression for the old path-edge hash, which packed the three fields
  // with <<40 / <<20 shifts and so collided systematically once any field
  // passed 2^20. Distinct (node, entry, cur) triples drawn well past that
  // boundary must hash distinctly (a 64-bit mixer makes accidental
  // collisions in 50k samples essentially impossible).
  std::unordered_set<uint64_t> Seen;
  uint64_t N = 0;
  for (uint64_t A = 0; A != 37; ++A)
    for (uint64_t B = 0; B != 37; ++B)
      for (uint64_t C = 0; C != 37; ++C) {
        uint64_t Node = (A + 1) << 21, Entry = (B + 1) << 22,
                 Cur = (C + 1) << 23;
        Seen.insert(hashCombine(hashCombine(mix64(Node), Entry), Cur));
        ++N;
      }
  EXPECT_EQ(Seen.size(), N);
}

TEST(ThreadPoolTest, TasksCanSubmitTasksAndWaitDrains) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 8; ++I)
    Pool.submit([&Pool, &Count] {
      ++Count;
      Pool.submit([&Count] { ++Count; });
    });
  Pool.wait(); // must cover the tasks submitted by running tasks
  EXPECT_EQ(Count.load(), 16);
  // The pool stays usable after a wait.
  Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 17);
}

TEST(ThreadPoolTest, ThrowingTaskRethrowsFromWaitWithoutDeadlock) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  for (int I = 0; I != 16; ++I)
    Pool.submit([&Ran, I] {
      ++Ran;
      if (I == 5)
        throw std::runtime_error("task blew up");
    });
  // wait() must drain every task (no deadlock waiting on Pending) and
  // rethrow the first captured exception exactly once.
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  EXPECT_EQ(Ran.load(), 16);
  // The error was consumed; the pool stays usable and a clean round does
  // not rethrow the stale exception.
  Pool.submit([&Ran] { ++Ran; });
  EXPECT_NO_THROW(Pool.wait());
  EXPECT_EQ(Ran.load(), 17);
}

TEST(ThreadPoolTest, ThrowingTasksDoNotDeadlockSubmittingPeers) {
  // Tasks that submit further tasks while another task throws: wait()
  // still drains everything and reports one of the errors.
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int I = 0; I != 8; ++I)
    Pool.submit([&Pool, &Count] {
      Pool.submit([&Count] { ++Count; });
      throw std::runtime_error("parent failed");
    });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  EXPECT_EQ(Count.load(), 8); // children still ran
}

TEST(BudgetTest, ConcurrentSteppingRespectsCap) {
  constexpr uint64_t Cap = 10'000;
  constexpr unsigned NumThreads = 4;
  Budget B(Cap, 1e9);
  std::atomic<uint64_t> Accepted{0};
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != NumThreads; ++I)
    Ts.emplace_back([&B, &Accepted] {
      uint64_t Mine = 0;
      while (B.step())
        ++Mine;
      Accepted += Mine;
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_TRUE(B.exhausted());
  // Relaxed atomics may overshoot by at most one step per racing thread.
  EXPECT_GE(Accepted.load(), Cap - NumThreads);
  EXPECT_LE(Accepted.load(), Cap + NumThreads);
}

//===----------------------------------------------------------------------===//
// Failpoints
//===----------------------------------------------------------------------===//

TEST(FailPointTest, DisarmedIsInertAndCountsNothing) {
  failpoint::disarmAll();
  EXPECT_FALSE(failpoint::armed());
  EXPECT_FALSE(SWIFT_FAILPOINT("never.armed"));
  EXPECT_EQ(failpoint::hits("never.armed"), 0u);
  EXPECT_TRUE(failpoint::armedNames().empty());
}

TEST(FailPointTest, NthFiresExactlyOnce) {
  failpoint::ScopedArm Arm("fp.test.nth=nth(3)");
  std::vector<bool> Fired;
  for (int I = 0; I != 6; ++I)
    Fired.push_back(SWIFT_FAILPOINT("fp.test.nth"));
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(failpoint::hits("fp.test.nth"), 6u);
  EXPECT_EQ(failpoint::fires("fp.test.nth"), 1u);
}

TEST(FailPointTest, EveryNthRepeats) {
  failpoint::ScopedArm Arm("fp.test.every=every(2)");
  int Fires = 0;
  for (int I = 0; I != 10; ++I)
    Fires += SWIFT_FAILPOINT("fp.test.every");
  EXPECT_EQ(Fires, 5);
  EXPECT_EQ(failpoint::fires("fp.test.every"), 5u);
}

TEST(FailPointTest, ProbIsSeededAndDeterministic) {
  std::vector<bool> First, Second;
  {
    failpoint::ScopedArm Arm("fp.test.prob=prob(0.5,42)");
    for (int I = 0; I != 64; ++I)
      First.push_back(SWIFT_FAILPOINT("fp.test.prob"));
  }
  {
    failpoint::ScopedArm Arm("fp.test.prob=prob(0.5,42)");
    for (int I = 0; I != 64; ++I)
      Second.push_back(SWIFT_FAILPOINT("fp.test.prob"));
  }
  EXPECT_EQ(First, Second); // same seed, same sequence
  int Fires = static_cast<int>(std::count(First.begin(), First.end(), true));
  EXPECT_GT(Fires, 10); // p=.5 over 64 draws: wildly improbable to miss
  EXPECT_LT(Fires, 54);
}

TEST(FailPointTest, SpecParsingMergesAndRejects) {
  failpoint::ScopedArm Arm("a.b=nth(1);c.d=always");
  std::vector<std::string> Names = failpoint::armedNames();
  EXPECT_EQ(Names, (std::vector<std::string>{"a.b", "c.d"}));

  // A malformed entry anywhere arms nothing new.
  EXPECT_THROW(failpoint::armSpec("e.f=nth(1);oops"), std::runtime_error);
  EXPECT_THROW(failpoint::armSpec("=nth(1)"), std::runtime_error);
  EXPECT_THROW(failpoint::armSpec("x=nth(zero)"), std::runtime_error);
  EXPECT_THROW(failpoint::armSpec("x=prob(1.5,1)"), std::runtime_error);
  EXPECT_THROW(failpoint::armSpec("x=sometimes"), std::runtime_error);
  EXPECT_EQ(failpoint::armedNames().size(), 2u);
}

TEST(FailPointTest, DuplicateNameWithinOneSpecIsRejected) {
  failpoint::disarmAll();
  // Last-wins used to silently drop the first trigger; now the whole
  // spec is rejected and nothing is armed.
  try {
    failpoint::armSpec("x.y=nth(1);x.y=every(2)");
    FAIL() << "duplicate name accepted";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("duplicate failpoint 'x.y'"),
              std::string::npos)
        << E.what();
  }
  EXPECT_TRUE(failpoint::armedNames().empty());

  // Re-arming the same name across *separate* specs is still the
  // documented replace-and-reset merge.
  failpoint::ScopedArm Arm("x.y=nth(2)");
  failpoint::armSpec("x.y=nth(1)");
  EXPECT_TRUE(SWIFT_FAILPOINT("x.y"));
}

//===----------------------------------------------------------------------===//
// Atomic file writes
//===----------------------------------------------------------------------===//

TEST(AtomicFileTest, RoundTripAndTypedReadError) {
  namespace fs = std::filesystem;
  fs::path Base = fs::temp_directory_path() /
                  ("swift-atomicfile-rt-" + std::to_string(::getpid()));
  fs::remove_all(Base);
  ASSERT_TRUE(fs::create_directories(Base));
  std::string Target = (Base / "data.bin").string();
  writeFileAtomic(Target, "first", "fp.test.atomic");
  writeFileAtomic(Target, "second", "fp.test.atomic");
  EXPECT_EQ(readWholeFile(Target), "second");
  try {
    readWholeFile((Base / "missing").string());
    FAIL() << "read of a missing file succeeded";
  } catch (const IoError &E) {
    EXPECT_EQ(E.op(), "open");
    EXPECT_EQ(E.path(), (Base / "missing").string());
  }
  fs::remove_all(Base);
}

std::string DoomedDir; // removed by the pre-rename hook below
void removeDoomedDir() { std::filesystem::remove_all(DoomedDir); }

TEST(AtomicFileTest, VanishingDestinationDirThrowsTypedIoError) {
  namespace fs = std::filesystem;
  fs::path Base = fs::temp_directory_path() /
                  ("swift-atomicfile-vanish-" + std::to_string(::getpid()));
  fs::remove_all(Base);
  ASSERT_TRUE(fs::create_directories(Base));
  std::string Target = (Base / "out.bin").string();

  // Simulate a concurrent actor deleting the destination directory in the
  // window between the fsynced temp write and the rename.
  DoomedDir = Base.string();
  atomicfile_detail::PreRenameTestHook = &removeDoomedDir;
  bool Threw = false;
  try {
    writeFileAtomic(Target, "payload", "fp.test.atomic");
  } catch (const IoError &E) {
    Threw = true;
    EXPECT_EQ(E.path(), Target);
    // First attempt dies at the rename; the bounded retries then fail to
    // reopen the temp file inside the vanished directory.
    EXPECT_TRUE(E.op() == "rename" || E.op() == "open") << E.op();
    EXPECT_NE(std::string(E.what()).find(Target), std::string::npos)
        << E.what();
  }
  atomicfile_detail::PreRenameTestHook = nullptr;
  EXPECT_TRUE(Threw);

  // No crash, and nothing recreated the directory or leaked a .tmp file
  // into a resurrected path.
  EXPECT_FALSE(fs::exists(Base));
}

TEST(ThreadPoolTest, WorkerStartupFaultDoesNotLeakThreads) {
  // The second worker's constructor throws; the pool must join the first
  // worker and surface an ordinary exception (not std::terminate).
  failpoint::ScopedArm Arm("pool.worker.start=nth(2)");
  EXPECT_THROW(ThreadPool(4), std::runtime_error);
}

TEST(ThreadPoolTest, InjectedTaskFaultSurfacesViaWait) {
  failpoint::ScopedArm Arm("pool.task=nth(2)");
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I != 8; ++I)
    Pool.submit([&Ran] { ++Ran; });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // Exactly one task body was replaced by the injected fault; the queue
  // still drained completely.
  EXPECT_EQ(Ran.load(), 7);
  Pool.submit([&Ran] { ++Ran; }); // the pool stays usable afterwards
  Pool.wait();
  EXPECT_EQ(Ran.load(), 8);
}

} // namespace
