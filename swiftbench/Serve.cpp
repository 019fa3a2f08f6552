//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve-edits workload: one client in a closed loop against the
/// swift-serve request loop (serve::serveLines on a server thread, over a
/// pipe pair) on a journaled ServeEngine. The stream is stationary: every
/// seeded makeFuzzEdit edit is followed by the revert of its procedure to
/// the base block, so each pair starts from the same program and latency
/// does not drift with run length. Verdict queries follow every edit;
/// query_all after every revert must match the TD reference of the base
/// program. Every few pairs the client asks for compaction (store snapshot
/// + journal reset).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Dumper.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "serve/Journal.h"
#include "serve/Server.h"
#include "support/Rng.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ext/stdio_filebuf.h>
#include <future>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace swift;
using namespace swift::perfbench;
namespace json = swift::obs::json;

namespace {

/// Compaction cadence, in edit/revert pairs.
constexpr size_t CompactEvery = 8;
/// Pairs whose counters the self-check compares (every run does these).
constexpr size_t CountedPairs = 4;
/// Pairs a full-size run makes at least: 112 edits leave more than ten
/// samples beyond edit_p90_ms even when the host is slow.
constexpr size_t MinPairs = 56;

json::Value obj(std::initializer_list<std::pair<const char *, json::Value>> M) {
  json::Value V;
  V.K = json::Value::Kind::Object;
  for (const auto &[K, X] : M)
    V.Obj.emplace_back(K, X);
  return V;
}

/// A swift-serve session on a server thread, and the client end of its
/// pipes. The destructor closes the request pipe (EOF ends the loop) and
/// joins the thread on every path.
class Session {
public:
  explicit Session(serve::ServeEngine &Engine) {
    int Req[2], Resp[2];
    if (::pipe(Req) != 0 || ::pipe(Resp) != 0)
      throw std::runtime_error("pipe failed");
    ReqWrite = Req[1];
    RespRead = Resp[0];
    // Reserved up front so the client allocates nothing while it waits.
    Buf.reserve(1 << 20);
    Pending.reserve(1 << 20);
    std::future<void> Started = Ready.get_future();
    Server = std::thread([&Engine, In = Req[0], Out = Resp[1], this] {
      __gnu_cxx::stdio_filebuf<char> InBuf(In, std::ios::in);
      __gnu_cxx::stdio_filebuf<char> OutBuf(Out, std::ios::out);
      std::istream IS(&InBuf);
      std::ostream OS(&OutBuf);
      Ready.set_value();
      Rc = serve::serveLines(Engine, IS, OS);
    });
    // The thread's own set-up allocations must not land in the first
    // request's allocation count.
    Started.wait();
  }
  ~Session() {
    if (!Joined) {
      ::close(ReqWrite);
      Server.join();
    }
    ::close(RespRead);
  }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Sends one request; returns the parsed response. \p Seconds receives
  /// the latency from the first byte written to the last byte read, and
  /// \p Allocs the allocations made meanwhile (the server's, since the
  /// client is blocked in read).
  json::Value call(const json::Value &Req, double &Seconds,
                   uint64_t &Allocs) {
    std::string Line = json::dump(Req);
    Line += '\n';
    uint64_t A0 = allocCount();
    Clock::time_point T0 = Clock::now();
    for (size_t Off = 0; Off < Line.size();) {
      ssize_t N = ::write(ReqWrite, Line.data() + Off, Line.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("request write failed");
      Off += static_cast<size_t>(N);
    }
    Buf.clear();
    for (;;) {
      size_t Nl = Pending.find('\n');
      if (Nl != std::string::npos) {
        Buf.append(Pending, 0, Nl);
        Pending.erase(0, Nl + 1);
        break;
      }
      Buf += Pending;
      Pending.clear();
      char Chunk[65536];
      ssize_t N = ::read(RespRead, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("server closed its output");
      Pending.append(Chunk, static_cast<size_t>(N));
    }
    Seconds = secondsSince(T0);
    Allocs = allocCount() - A0;
    return json::parse(Buf);
  }
  json::Value call(const json::Value &Req) {
    double S;
    uint64_t A;
    return call(Req, S, A);
  }

  /// Ends the session with a shutdown request; returns serveLines' code.
  int shutdown() {
    call(obj({{"op", json::Value::str("shutdown")}}));
    ::close(ReqWrite);
    Server.join();
    Joined = true;
    return Rc;
  }

private:
  int ReqWrite = -1, RespRead = -1;
  std::promise<void> Ready; ///< Set by the server thread once it listens.
  std::thread Server;
  bool Joined = false;
  int Rc = 0;
  std::string Buf, Pending;
};

bool okField(const json::Value &V) {
  const json::Value *Ok = V.find("ok");
  return Ok && Ok->isBool() && Ok->B;
}

uint64_t numField(const json::Value &V, const char *K) {
  const json::Value *F = V.find(K);
  return F ? F->asU64() : 0;
}

std::string describe(const json::Value &V) {
  std::string S = json::dump(V);
  return S.size() > 300 ? S.substr(0, 300) + "..." : S;
}

std::string sitesStr(const std::set<SiteId> &S) {
  std::string Out;
  for (SiteId X : S)
    Out += (Out.empty() ? "" : ",") + std::to_string(X);
  return "{" + Out + "}";
}

/// True when \p Body differs from \p BaseBlock in a typestate call line
/// (`v.m()` nopped out or swapped for another method). Such an edit
/// leaves the alias, mod-ref and call-graph oracles unchanged, so what it
/// invalidates is the upward closure of its procedure alone.
bool editsTsCall(const std::string &BaseBlock, const std::string &Body) {
  size_t I = 0;
  while (I < BaseBlock.size() && I < Body.size() && BaseBlock[I] == Body[I])
    ++I;
  if (I == BaseBlock.size())
    return false;
  size_t Begin = BaseBlock.rfind('\n', I);
  Begin = Begin == std::string::npos ? 0 : Begin + 1;
  size_t End = std::min(BaseBlock.find('\n', I), BaseBlock.size());
  std::string_view Line(BaseBlock.data() + Begin, End - Begin);
  size_t Colon = Line.find(": "), Arrow = Line.rfind(" ->");
  if (Colon == std::string_view::npos || Arrow == std::string_view::npos ||
      Arrow < Colon + 4)
    return false;
  std::string_view Cmd = Line.substr(Colon + 2, Arrow - Colon - 2);
  return Cmd.find(' ') == std::string_view::npos &&
         Cmd.find('.') != std::string_view::npos &&
         Cmd.substr(Cmd.size() - 2) == "()";
}

/// The seeded, stationary edit stream. A cycle edits every third
/// procedure that has a typestate call, in program order — the same
/// procedures in the same order for every seed — with one typestate-call
/// edit each; the seed picks which call and how it changes. Every pair
/// reverts its procedure to the base block and runs measure whole cycles,
/// so the work of a run hardly depends on the seed and not at all on how
/// many pairs fit in its time.
class EditStream {
public:
  EditStream(const std::string &Base, uint64_t Seed) {
    std::vector<serve::ProcBlock> Bs = serve::procBlocks(Base);
    for (const serve::ProcBlock &B : Bs)
      Blocks[B.Name] = Base.substr(B.Begin, B.End - B.Begin);
    std::set<std::string> Editable;
    for (uint64_t K = 0; K != Draws / 8; ++K)
      if (std::optional<serve::FuzzEdit> E = draw(Base, 0, K))
        Editable.insert(E->ProcName);
    std::map<std::string, std::optional<serve::FuzzEdit>> EditOf;
    std::vector<std::string> Chosen;
    size_t I = 0;
    for (const serve::ProcBlock &B : Bs)
      if (Editable.count(B.Name) && I++ % 3 == 0) {
        EditOf[B.Name];
        Chosen.push_back(B.Name);
      }
    size_t Left = EditOf.size();
    for (uint64_t K = 0; Left != 0 && K != Draws; ++K)
      if (std::optional<serve::FuzzEdit> E = draw(Base, Seed, K)) {
        auto It = EditOf.find(E->ProcName);
        if (It != EditOf.end() && !It->second) {
          It->second = std::move(E);
          --Left;
        }
      }
    for (const std::string &Name : Chosen)
      if (std::optional<serve::FuzzEdit> &E = EditOf[Name])
        Cycle.push_back(std::move(*E));
    if (Cycle.empty())
      throw std::runtime_error("makeFuzzEdit found no typestate call to edit");
  }
  size_t cycleLen() const { return Cycle.size(); }
  const serve::FuzzEdit &next() { return Cycle[Pos++ % Cycle.size()]; }
  const std::string &baseBlock(const std::string &Proc) const {
    return Blocks.at(Proc);
  }

private:
  /// Draw cap of the per-procedure search (each draw re-scans the text).
  static constexpr uint64_t Draws = 4096;

  /// makeFuzzEdit's K'th edit of \p Seed if it edits a typestate call.
  std::optional<serve::FuzzEdit> draw(const std::string &Base, uint64_t Seed,
                                      uint64_t K) const {
    std::optional<serve::FuzzEdit> E = serve::makeFuzzEdit(Base, Seed, K);
    if (E && !editsTsCall(Blocks.at(E->ProcName), E->Body))
      E.reset();
    return E;
  }

  std::vector<serve::FuzzEdit> Cycle;
  size_t Pos = 0;
  std::map<std::string, std::string> Blocks;
};

json::Value editReq(const std::string &Proc, const std::string &Body) {
  return obj({{"op", json::Value::str("edit")},
              {"proc", json::Value::str(Proc)},
              {"body", json::Value::str(Body)}});
}

/// What an accepted edit request reported.
struct Ack {
  double Ms = 0;
  uint64_t Reanalyzed = 0, Reused = 0, Invalidated = 0;
  uint64_t Allocs = 0; ///< Allocations the server made for the request.
};

/// Everything the closed loop measures.
struct LoopStats {
  Samples Edit, Query, Noop;
  std::vector<double> EditSeq; ///< Edit latencies in request order (ms).
  uint64_t Reanalyzed = 0, Reused = 0;
  size_t Pairs = 0;
  /// Counters of the first CountedPairs pairs (the self-check's).
  uint64_t CountedReanalyzed = 0, CountedReused = 0, CountedInvalidated = 0,
           CountedAllocs = 0;
  std::vector<serve::Journal::Record> Records; ///< Edits the loop sent.

  void note(const Ack &A, bool Counted) {
    Edit.add(A.Ms);
    EditSeq.push_back(A.Ms);
    Reanalyzed += A.Reanalyzed;
    Reused += A.Reused;
    if (Counted) {
      CountedReanalyzed += A.Reanalyzed;
      CountedReused += A.Reused;
      CountedInvalidated += A.Invalidated;
      CountedAllocs += A.Allocs;
    }
  }
};

struct ServeCtx {
  Session &S;
  EditStream &Stream;
  const Expected &Ref;
  size_t NumSites;
  Report &R;
  Rng &Pick;
};

/// Sends one edit request; nullopt (and a failed operation) unless the
/// server accepted it.
std::optional<Ack> sendEdit(ServeCtx &C, const std::string &Proc,
                            const std::string &Body) {
  Ack A;
  double Sec;
  json::Value Resp = C.S.call(editReq(Proc, Body), Sec, A.Allocs);
  if (!okField(Resp)) {
    C.R.op("edit of '" + Proc + "' failed: " + describe(Resp));
    return std::nullopt;
  }
  C.R.op();
  A.Ms = Sec * 1e3;
  A.Reanalyzed = numField(Resp, "reanalyzed");
  A.Reused = numField(Resp, "reused");
  A.Invalidated = numField(Resp, "invalidated");
  return A;
}

/// One single-site verdict query; \p AtBase: the program is at its base,
/// so the verdict must be the reference's.
void sendQuery(ServeCtx &C, LoopStats &L, bool AtBase) {
  SiteId Site = static_cast<SiteId>(C.Pick.below(C.NumSites));
  double Sec;
  uint64_t Allocs;
  json::Value Resp = C.S.call(obj({{"op", json::Value::str("query")},
                                   {"site", json::Value::u64(Site)}}),
                              Sec, Allocs);
  const json::Value *V = Resp.find("verdict");
  std::string Err;
  if (!okField(Resp) || !V || !V->isString() || V->Str == "unresolved")
    Err = "query failed: " + describe(Resp);
  else if (AtBase && (V->Str == "error") != (C.Ref.ErrorSites.count(Site) != 0))
    Err = "query of site " + std::to_string(Site) + " at base says '" +
          V->Str + "', the TD reference disagrees";
  C.R.op(Err);
  if (Err.empty())
    L.Query.add(Sec * 1e3);
}

void checkQueryAll(ServeCtx &C) {
  json::Value Resp = C.S.call(obj({{"op", json::Value::str("query_all")}}));
  std::set<SiteId> Got;
  if (const json::Value *A = Resp.find("error_sites"))
    for (const json::Value &X : A->Arr)
      Got.insert(static_cast<SiteId>(X.asU64()));
  if (!okField(Resp))
    C.R.op("query_all failed: " + describe(Resp));
  else if (Got != C.Ref.ErrorSites)
    C.R.op("query_all after revert: error sites " + sitesStr(Got) +
           " != TD reference " + sitesStr(C.Ref.ErrorSites));
  else
    C.R.op();
}

void compact(ServeCtx &C) {
  json::Value Resp = C.S.call(obj({{"op", json::Value::str("save")}}));
  C.R.op(okField(Resp) ? "" : "compaction failed: " + describe(Resp));
}

/// One stationary pair: edit, queries, revert, queries, query_all; with
/// \p Noop also a no-op edit (the base block re-sent) at the end.
void runPair(ServeCtx &C, LoopStats &L, const serve::FuzzEdit &E, bool Noop) {
  bool Counted = L.Pairs < CountedPairs;
  const std::string &Revert = C.Stream.baseBlock(E.ProcName);
  if (std::optional<Ack> A = sendEdit(C, E.ProcName, E.Body))
    L.note(*A, Counted);
  sendQuery(C, L, /*AtBase=*/false);
  sendQuery(C, L, /*AtBase=*/false);
  if (std::optional<Ack> A = sendEdit(C, E.ProcName, Revert))
    L.note(*A, Counted);
  sendQuery(C, L, /*AtBase=*/true);
  checkQueryAll(C);
  if (Noop)
    if (std::optional<Ack> A = sendEdit(C, E.ProcName, Revert))
      L.Noop.add(A->Ms);
  if (L.Records.size() < 64) {
    L.Records.push_back({E.ProcName, E.Body});
    L.Records.push_back({E.ProcName, Revert});
  }
  if (++L.Pairs % CompactEvery == 0)
    compact(C);
}

/// Pins the calling thread, and the threads it creates later, to the CPU
/// it runs on. Client and server thread then hand a request back and forth
/// with two context switches on one CPU instead of two cross-CPU wake-ups,
/// whose cost swings with the host's idle states (15 vs 45 us a query).
void pinToCurrentCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

std::string checkEngine(const char *What, const serve::EditResult &Res,
                        const serve::ServeEngine &E, const Expected &Ref) {
  if (!Res.Ok)
    return std::string(What) + " failed: " + Res.Error;
  if (E.errorSites() != Ref.ErrorSites)
    return std::string(What) + ": error sites " + sitesStr(E.errorSites()) +
           " != TD reference " + sitesStr(Ref.ErrorSites);
  return "";
}

uint64_t fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

} // namespace

void perfbench::runServeEdits(const Options &O,
                              const std::map<std::string, Expected> &E,
                              Report &R) {
  std::string Name = workloadInputs(O.Workload, O.Tiny).front();
  auto RefIt = E.find(Name);
  if (RefIt == E.end())
    throw std::runtime_error("no expected verdict for input '" + Name + "'");
  const Expected &Ref = RefIt->second;
  const std::string Base = inputText(inputSpec(Name));

  pinToCurrentCpu();
  // swift-serve runs its request loop on the main thread, so all its
  // allocations share one malloc arena. The server thread here would get
  // an arena of its own, and the peak resident set would then move by up
  // to a fifth between runs of the same seed.
  mallopt(M_ARENA_MAX, 1);
  serve::EngineOptions EO;
  EO.TrackedClass = trackedClass();
  EO.StorePath = O.WorkDir + "/serve.store";
  EO.JournalPath = O.WorkDir + "/serve.journal";
  // Far above any edit's cost: an overrun answers degraded (a failure
  // here) instead of stalling the run.
  EO.RequestDeadlineMs = 30000;

  // Set-up: engine start through the initial solve until ready, as
  // swift-serve's cold start does (journal reset to the new baseline).
  // Eleven cold starts, about 2.5 s: setup_s is their median.
  Samples Setup;
  std::unique_ptr<serve::ServeEngine> Engine;
  for (int I = 0; I != (O.Tiny ? 2 : 11); ++I) {
    Engine.reset();
    Clock::time_point T0 = Clock::now();
    Engine = std::make_unique<serve::ServeEngine>(Base, EO);
    serve::EditResult Init = Engine->solveInitial();
    Engine->resetJournal();
    Setup.add(secondsSince(T0));
    R.op(checkEngine("initial solve", Init, *Engine, Ref));
  }

  Clock::time_point TS = Clock::now();
  EditStream Stream(Base, O.Seed);
  std::fprintf(stderr, "serve: %zu-pair edit cycle drawn in %.2f s\n",
               Stream.cycleLen(), secondsSince(TS));
  Rng Pick(O.Seed ^ 0x5eed5eedULL);
  LoopStats Plain, Traced;
  // ApplySpans holds the direct applyEdit calls alone, so the BU solver's
  // spans divide by exactly those calls.
  SpanTable Spans, ApplySpans;
  size_t NumSites = Engine->program().numSites();
  // Direct ServeEngine::applyEdit calls of a traced run, and the request
  // latency minus the direct latency of the same edit.
  Samples Apply, ApplyAllocs, Reanalyzed, Reused, Invalidated, Overhead;
  if (!O.Trace) {
    Session S(*Engine);
    ServeCtx C{S, Stream, Ref, NumSites, R, Pick};
    // Outside tiny mode the loop only ends on a cycle boundary.
    StopRule Stop(O, /*MinIters=*/MinPairs, /*TinyIters=*/CountedPairs);
    while (Stop.more(Plain.Pairs) ||
           (!O.Tiny && Plain.Pairs % Stream.cycleLen() != 0))
      runPair(C, Plain, Stream.next(), /*Noop=*/false);
    R.op(S.shutdown() == 0 ? "" : "serve loop ended with an error");
  } else {
    // Rounds of three cycles of the same edits: untraced requests (the
    // overhead baseline), traced requests with a no-op edit in every
    // pair, and traced direct applyEdit calls on the idle engine.
    // Interleaving keeps each comparison within seconds, so drift in
    // machine speed cancels.
    StopRule Stop(O, /*MinIters=*/1, /*TinyIters=*/1);
    for (size_t Round = 0; Stop.more(Round); ++Round) {
      size_t FirstTraced = Traced.EditSeq.size();
      {
        Session S(*Engine);
        ServeCtx C{S, Stream, Ref, NumSites, R, Pick};
        for (size_t I = 0; I != Stream.cycleLen(); ++I)
          runPair(C, Plain, Stream.next(), /*Noop=*/false);
        traceOn();
        for (size_t I = 0; I != Stream.cycleLen(); ++I)
          runPair(C, Traced, Stream.next(), /*Noop=*/true);
        R.op(S.shutdown() == 0 ? "" : "serve loop ended with an error");
      }
      Spans.harvest();
      traceOn();
      size_t J = FirstTraced; // The traced request of the same edit.
      for (size_t I = 0; I != Stream.cycleLen(); ++I) {
        const serve::FuzzEdit &FE = Stream.next();
        const std::string *Bodies[] = {&FE.Body,
                                       &Stream.baseBlock(FE.ProcName)};
        for (const std::string *Body : Bodies) {
          uint64_t A0 = allocCount();
          Clock::time_point T0 = Clock::now();
          serve::EditResult Res;
          {
            obs::TraceSpan Span("bench", "serve.apply_edit");
            Res = Engine->applyEdit(FE.ProcName, *Body);
          }
          double Ms = secondsSince(T0) * 1e3;
          R.op(Res.Ok ? "" : "direct edit failed: " + Res.Error);
          Apply.add(Ms);
          ApplyAllocs.add(static_cast<double>(allocCount() - A0));
          Reanalyzed.add(static_cast<double>(Res.Reanalyzed));
          Reused.add(static_cast<double>(Res.Reused));
          Invalidated.add(static_cast<double>(Res.Invalidated));
          if (J < Traced.EditSeq.size())
            Overhead.add(Traced.EditSeq[J++] - Ms);
        }
      }
      ApplySpans.harvest();
    }
    R.op(Engine->errorSites() == Ref.ErrorSites
             ? ""
             : "direct edits did not return to the base verdicts");
  }
  {
    // Leave a journal tail of one pair on a fresh compaction for the
    // warm starts below: the first pair of seed 0, the same on every run.
    Session S(*Engine);
    ServeCtx C{S, Stream, Ref, NumSites, R, Pick};
    compact(C);
    LoopStats Tail;
    serve::FuzzEdit TailEdit = EditStream(Base, 0).next();
    runPair(C, Tail, TailEdit, /*Noop=*/false);
    R.op(S.shutdown() == 0 ? "" : "serve loop ended with an error");
  }

  // Warm start, as swift-serve --store does: load the store, fill gaps,
  // replay the journal tail.
  Samples Warm;
  if (O.Trace)
    traceOn();
  for (int I = 0; I != (O.Tiny ? 2 : 5); ++I) {
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<serve::ServeEngine> W;
    {
      obs::TraceSpan Span("bench", "store.load");
      W = std::make_unique<serve::ServeEngine>(
          serve::ServeEngine::FromStore{EO.StorePath}, EO);
    }
    serve::EditResult Init;
    {
      obs::TraceSpan Span("bench", "serve.warm_solve");
      Init = W->solveInitial();
    }
    size_t Replayed = 0;
    serve::EditResult Rep;
    {
      obs::TraceSpan Span("bench", "journal.replay");
      Rep = W->replayJournal(&Replayed);
    }
    Warm.add(secondsSince(T0));
    std::string Err = checkEngine("warm start", Init, *W, Ref);
    if (Err.empty())
      Err = checkEngine("journal replay", Rep, *W, Ref);
    if (Err.empty() && Replayed != 2)
      Err = "journal replay applied " + std::to_string(Replayed) +
            " records, expected 2";
    R.op(Err);
    Engine = std::move(W);
  }
  if (O.Trace)
    Spans.harvest();

  // The journal's share of edit latency: Journal::append (frame, write,
  // fsync) timed on this run's own records in a scratch journal.
  Samples Append;
  {
    serve::Journal J(O.WorkDir + "/probe.journal");
    for (const serve::Journal::Record &Rec : Plain.Records) {
      Clock::time_point T0 = Clock::now();
      J.append(Rec);
      Append.add(secondsSince(T0) * 1e3);
    }
  }

  double EditP50 = Plain.Edit.median();
  uint64_t Touched = Plain.Reused + Plain.Reanalyzed;
  double ReuseRatio =
      Touched ? static_cast<double>(Plain.Reused) / static_cast<double>(Touched)
              : 0;
  R.claim("journal.share", EditP50 > 0 ? Append.median() / EditP50 : 0, 0,
          0.05, "fsync before ack is a small share of edit latency");
  R.claim("serve.reuse_ratio", ReuseRatio, 0.2, 0.95,
          "an edit re-analyzes a part of the program and reuses the rest");

  R.counter("serve.reanalyzed", Plain.CountedReanalyzed);
  R.counter("serve.reused", Plain.CountedReused);
  R.counter("serve.invalidated", Plain.CountedInvalidated);
  R.counter("alloc.count", Plain.CountedAllocs);

  if (!O.Trace) {
    R.metric("setup_s", Setup.median(), "s", Setup.size());
    // An edit's acknowledgement carries the re-solved verdicts.
    R.metric("verdict_ms", EditP50, "ms", Plain.Edit.size());
    R.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    R.metric("edit_p90_ms", Plain.Edit.quantile(0.9), "ms", Plain.Edit.size());
    R.metric("query_p50_ms", Plain.Query.median(), "ms", Plain.Query.size());
    R.metric("warm_start_s", Warm.median(), "s", Warm.size());
    return;
  }

  traceOn();
  Samples Save, Parse, Context;
  std::string Probe = O.WorkDir + "/probe.store";
  for (int I = 0; I != 3; ++I) {
    Clock::time_point T0 = Clock::now();
    {
      obs::TraceSpan Span("bench", "store.save");
      Engine->saveStore(Probe);
    }
    Save.add(secondsSince(T0) * 1e3);
  }
  for (int I = 0; I != 5; ++I) {
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<Program> P;
    {
      obs::TraceSpan Span("bench", "ir.parse");
      P = parseProgramText(Base);
    }
    Parse.add(secondsSince(T0) * 1e3);
    T0 = Clock::now();
    {
      obs::TraceSpan Span("bench", "alias.context");
      TsContext Ctx(*P, P->symbols().intern(trackedClass()));
    }
    Context.add(secondsSince(T0));
  }
  // Verdict lookups, per call: a sweep over every site, many times.
  double QueryUs = 0;
  {
    size_t NumSites = Engine->program().numSites(), Calls = 0;
    volatile int Sink = 0;
    Clock::time_point T0 = Clock::now();
    do {
      for (SiteId S = 0; S != NumSites; ++S)
        Sink = Sink + static_cast<int>(Engine->verdict(S));
      Calls += NumSites;
    } while (secondsSince(T0) < 0.05);
    QueryUs = secondsSince(T0) * 1e6 / static_cast<double>(Calls);
  }
  Spans.harvest();

  double TracedEdit = Traced.Edit.median();
  R.metric("ir.parse_ms", Parse.median(), "ms", Parse.size());
  R.metric("alias.context_s", Context.median(), "s", Context.size());
  double NA = static_cast<double>(Apply.size());
  double BuSeconds = ApplySpans.selfWithPrefix("bu.") / NA;
  R.metric("bu.time_s", BuSeconds, "s", Apply.size());
  R.metric("bu.share", BuSeconds * 1e3 * NA / Apply.sum(), "ratio",
           Apply.size());
  R.metric("bu.scc_solves", ApplySpans.count("bu.scc") / NA, "count",
           Apply.size());
  {
    std::unique_ptr<Program> Prog = parseProgramText(Base);
    measureRelationOps(*Prog, O.Seed, R);
  }
  R.metric("serve.apply_edit_ms", Apply.median(), "ms", Apply.size());
  R.metric("serve.request_overhead_ms", Overhead.median(), "ms",
           Overhead.size());
  R.metric("serve.noop_edit_ms", Traced.Noop.median(), "ms",
           Traced.Noop.size());
  R.metric("serve.reanalyzed", Reanalyzed.median(), "count",
           Reanalyzed.size());
  R.metric("serve.reused", Reused.median(), "count", Reused.size());
  R.metric("serve.invalidated", Invalidated.median(), "count",
           Invalidated.size());
  double Re = Reanalyzed.sum(), Us = Reused.sum();
  R.metric("serve.reuse_ratio", Re + Us > 0 ? Us / (Re + Us) : 0, "ratio",
           Reused.size());
  R.metric("serve.query_us", QueryUs, "us", 1);
  R.metric("alloc.count", ApplyAllocs.median(), "count", ApplyAllocs.size());
  R.metric("journal.append_ms", Append.median(), "ms", Append.size());
  R.metric("journal.replay_ms", Spans.meanMs("journal.replay"), "ms",
           Warm.size());
  R.metric("store.save_ms", Save.median(), "ms", Save.size());
  R.metric("store.load_ms", Spans.meanMs("store.load"), "ms", Warm.size());
  R.metric("store.bytes", static_cast<double>(fileBytes(Probe)), "bytes", 1);
  R.metric("obs.trace_overhead", EditP50 > 0 ? TracedEdit / EditP50 : 0,
           "ratio", Traced.Edit.size());
  R.spans(Spans.table());
  R.spans(ApplySpans.table());
}
