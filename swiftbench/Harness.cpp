//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "genprog/Generator.h"
#include "genprog/Workloads.h"
#include "ir/Dumper.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "support/AtomicFile.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include <sys/resource.h>

using namespace swift;
using namespace swift::perfbench;
namespace json = swift::obs::json;

//===----------------------------------------------------------------------===//
// Allocation counter
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocs{0};
} // namespace

// noinline: an inlined replacement lets the optimizer pair the visible
// std::free with the standard operator new and misfire
// -Wmismatched-new-delete (the replacement new also uses malloc).
[[gnu::noinline]] void *operator new(std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

[[gnu::noinline]] void *operator new[](std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's buffer uses them), so every
// operator-new allocation is counted and every one ends in std::free.
[[gnu::noinline]] void *operator new(std::size_t N,
                                     const std::nothrow_t &) noexcept {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}

[[gnu::noinline]] void *operator new[](std::size_t N,
                                       const std::nothrow_t &) noexcept {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}

[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P,
                                       const std::nothrow_t &) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P,
                                         const std::nothrow_t &) noexcept {
  std::free(P);
}

uint64_t perfbench::allocCount() {
  return GAllocs.load(std::memory_order_relaxed);
}

double perfbench::peakRssMb() {
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double perfbench::peakChildRssMb() {
  struct rusage U;
  ::getrusage(RUSAGE_CHILDREN, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

double Samples::quantile(double Q) const {
  if (Vals.empty())
    return 0;
  std::vector<double> S = Vals;
  std::sort(S.begin(), S.end());
  double Pos = Q * static_cast<double>(S.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, S.size() - 1);
  return S[Lo] + (S[Hi] - S[Lo]) * (Pos - static_cast<double>(Lo));
}

double Samples::sum() const {
  double T = 0;
  for (double V : Vals)
    T += V;
  return T;
}

//===----------------------------------------------------------------------===//
// Expected verdicts
//===----------------------------------------------------------------------===//

std::map<std::string, Expected>
perfbench::loadExpected(const std::string &Path) {
  json::Value Doc = json::parse(readWholeFile(Path));
  const json::Value *Inputs = Doc.find("inputs");
  if (!Inputs || !Inputs->isObject())
    throw std::runtime_error(Path + ": no \"inputs\" object");
  std::map<std::string, Expected> M;
  for (const auto &[Name, V] : Inputs->Obj) {
    const json::Value *Sites = V.find("error_sites");
    const json::Value *Digest = V.find("main_exit_digest");
    if (!Sites || !Sites->isArray() || !Digest || !Digest->isString())
      throw std::runtime_error(Path + ": malformed entry '" + Name + "'");
    Expected E;
    for (const json::Value &S : Sites->Arr)
      E.ErrorSites.insert(static_cast<SiteId>(S.asU64()));
    E.ExitDigest = Digest->Str;
    M[Name] = std::move(E);
  }
  return M;
}

std::string perfbench::mainExitDigest(const Program &Prog,
                                      const std::set<TsAbstractState> &S) {
  std::vector<std::string> Lines;
  for (const TsAbstractState &St : S)
    Lines.push_back(St.str(Prog));
  std::sort(Lines.begin(), Lines.end());
  uint64_t H = 1469598103934665603ULL; // FNV-1a 64
  for (const std::string &L : Lines) {
    for (char C : L) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ULL;
    }
    H ^= '\n';
    H *= 1099511628211ULL;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx-%zu",
                static_cast<unsigned long long>(H), Lines.size());
  return Buf;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value, const char *Unit,
                    size_t SampleCount) {
  Metrics.push_back({Name, Value, Unit, SampleCount});
}

void Report::counter(const std::string &Name, uint64_t Value) {
  Counters[Name] = Value;
}

void Report::op(const std::string &Error) {
  ++Attempted;
  if (Error.empty())
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Error);
  std::fprintf(stderr, "swift-perfbench: FAILED: %s\n", Error.c_str());
}

void Report::claim(const std::string &Name, double Value, double Lo,
                   double Hi, const std::string &Statement) {
  Claims.push_back({Name, Value, Lo, Hi, Statement});
}

void Report::spans(const std::map<std::string, SpanStat> &S) {
  for (const auto &[Name, V] : S) {
    SpanStat &T = Spans[Name];
    T.SelfSeconds += V.SelfSeconds;
    T.TotalSeconds += V.TotalSeconds;
    T.Count += V.Count;
  }
}

std::string Report::json(const Options &O) const {
  auto Obj = [] {
    json::Value V;
    V.K = json::Value::Kind::Object;
    return V;
  };
  auto Arr = [] {
    json::Value V;
    V.K = json::Value::Kind::Array;
    return V;
  };
  json::Value Root = Obj();
  auto Put = [](json::Value &Into, const std::string &K, json::Value V) {
    Into.Obj.emplace_back(K, std::move(V));
  };
  Put(Root, "workload", json::Value::str(O.Workload));
  Put(Root, "seed", json::Value::u64(O.Seed));
  Put(Root, "trace", json::Value::boolean(O.Trace));
  Put(Root, "tiny", json::Value::boolean(O.Tiny));
  json::Value B = Obj();
  Put(B, "type", json::Value::str(SWIFT_PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  Put(B, "assertions", json::Value::boolean(false));
#else
  Put(B, "assertions", json::Value::boolean(true));
#endif
  Put(Root, "build", std::move(B));
  Put(Root, "attempted", json::Value::u64(Attempted));
  Put(Root, "failed", json::Value::u64(Failed));
  json::Value F = Arr();
  for (const std::string &S : Failures)
    F.Arr.push_back(json::Value::str(S));
  Put(Root, "failures", std::move(F));
  json::Value M = Obj();
  for (const Metric &X : Metrics) {
    json::Value E = Obj();
    Put(E, "value", json::Value::number(X.Value));
    Put(E, "unit", json::Value::str(X.Unit));
    Put(E, "samples", json::Value::u64(X.SampleCount));
    Put(M, X.Name, std::move(E));
  }
  Put(Root, "metrics", std::move(M));
  json::Value C = Arr();
  for (const Claim &X : Claims) {
    json::Value E = Obj();
    Put(E, "name", json::Value::str(X.Name));
    Put(E, "value", json::Value::number(X.Value));
    Put(E, "lo", json::Value::number(X.Lo));
    Put(E, "hi", json::Value::number(X.Hi));
    Put(E, "holds", json::Value::boolean(X.Value >= X.Lo && X.Value <= X.Hi));
    Put(E, "statement", json::Value::str(X.Statement));
    C.Arr.push_back(std::move(E));
  }
  Put(Root, "claims", std::move(C));
  json::Value K = Obj();
  for (const auto &[Name, V] : Counters)
    Put(K, Name, json::Value::u64(V));
  Put(Root, "counters", std::move(K));
  json::Value S = Obj();
  for (const auto &[Name, V] : Spans) {
    json::Value E = Obj();
    Put(E, "self_s", json::Value::number(V.SelfSeconds));
    Put(E, "total_s", json::Value::number(V.TotalSeconds));
    Put(E, "count", json::Value::u64(V.Count));
    Put(S, Name, std::move(E));
  }
  Put(Root, "spans", std::move(S));
  return json::dump(Root);
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

InputSpec perfbench::inputSpec(const std::string &Name) {
  std::string Base = Name;
  int Gnarly = -1;
  size_t Dot = Name.rfind(".g");
  if (Dot != std::string::npos) {
    Base = Name.substr(0, Dot);
    Gnarly = std::atoi(Name.c_str() + Dot + 2);
  }
  const NamedWorkload *W = findWorkload(Base);
  if (!W)
    throw std::runtime_error("unknown input '" + Name + "'");
  InputSpec In{Name, W->Config};
  if (Gnarly >= 0)
    In.Config.GnarlyPerMille = static_cast<unsigned>(Gnarly);
  return In;
}

std::string perfbench::inputText(const InputSpec &In) {
  return programToText(*generateWorkload(In.Config));
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"swift-batch", "bu-batch",
                                                 "serve-edits", "shard-bu"};
  return Names;
}

std::vector<std::string> perfbench::workloadInputs(const std::string &W,
                                                   bool Tiny) {
  // swift-batch: four mid-tier Table 2 programs plus avrora, the first of
  // the large tier, whose alias set-up is the costliest per program.
  // bu-batch: the two Table 2 programs pure BU finishes in milliseconds,
  // plus mid-tier shapes with case splitting lowered until one BU solve
  // takes 0.3-3 s (the Table 2 toba-s takes ~18 s, too long to repeat
  // within a run). serve-edits: toba-s with no case-splitting procedures,
  // so the cold solve is sub-second. shard-bu: one bu-batch program.
  if (W == "swift-batch")
    return Tiny ? std::vector<std::string>{"jpat-p", "elevator"}
                : std::vector<std::string>{"toba-s", "javasrc-p", "antlr",
                                           "luindex", "avrora"};
  if (W == "bu-batch")
    return Tiny ? std::vector<std::string>{"jpat-p", "elevator"}
                : std::vector<std::string>{"jpat-p", "elevator", "hedc.g100",
                                           "toba-s.g100", "toba-s.g150"};
  if (W == "serve-edits")
    return {Tiny ? "elevator" : "toba-s.g0"};
  if (W == "shard-bu")
    return {Tiny ? "elevator" : "toba-s.g100"};
  throw std::runtime_error("unknown workload '" + W + "'");
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

void perfbench::traceOn() { obs::TraceRecorder::instance().start(); }

void SpanTable::harvest() {
  obs::TraceRecorder &TR = obs::TraceRecorder::instance();
  TR.stop();
  std::string Doc = TR.toJson();
  TR.reset();
  struct Span {
    std::string Name;
    uint64_t Ts, Dur;
  };
  // One event per line; only the duration events are parsed (instants
  // and counters can number in the hundreds of thousands).
  std::map<uint64_t, std::vector<Span>> ByThread;
  for (size_t Pos = 0; Pos < Doc.size();) {
    size_t End = Doc.find('\n', Pos);
    if (End == std::string::npos)
      End = Doc.size();
    std::string_view Line(Doc.data() + Pos, End - Pos);
    Pos = End + 1;
    size_t Open = Line.find('{'), Close = Line.rfind('}');
    if (Line.find("\"ph\":\"X\"") == std::string_view::npos ||
        Open == std::string_view::npos || Close == std::string_view::npos)
      continue;
    json::Value E = json::parse(Line.substr(Open, Close - Open + 1));
    ByThread[E.find("tid")->asU64()].push_back(
        {E.find("name")->Str, E.find("ts")->asU64(), E.find("dur")->asU64()});
  }
  for (auto &[Tid, Spans] : ByThread) {
    (void)Tid;
    // Outer spans first: by start, then longest first.
    std::sort(Spans.begin(), Spans.end(), [](const Span &A, const Span &B) {
      return A.Ts != B.Ts ? A.Ts < B.Ts : A.Dur > B.Dur;
    });
    std::vector<uint64_t> ChildUs(Spans.size(), 0);
    std::vector<size_t> Open; // Stack of enclosing spans.
    for (size_t I = 0; I != Spans.size(); ++I) {
      while (!Open.empty() &&
             Spans[Open.back()].Ts + Spans[Open.back()].Dur <= Spans[I].Ts)
        Open.pop_back();
      if (!Open.empty())
        ChildUs[Open.back()] += Spans[I].Dur;
      Open.push_back(I);
    }
    for (size_t I = 0; I != Spans.size(); ++I) {
      SpanStat &Slot = Stats[Spans[I].Name];
      uint64_t Us = Spans[I].Dur > ChildUs[I] ? Spans[I].Dur - ChildUs[I] : 0;
      Slot.SelfSeconds += static_cast<double>(Us) / 1e6;
      Slot.TotalSeconds += static_cast<double>(Spans[I].Dur) / 1e6;
      ++Slot.Count;
    }
  }
}

double SpanTable::self(const std::string &Name) const {
  auto It = Stats.find(Name);
  return It == Stats.end() ? 0 : It->second.SelfSeconds;
}

double SpanTable::selfWithPrefix(const std::string &Prefix) const {
  double T = 0;
  for (const auto &[Name, V] : Stats)
    if (Name.rfind(Prefix, 0) == 0)
      T += V.SelfSeconds;
  return T;
}

double SpanTable::count(const std::string &Name) const {
  auto It = Stats.find(Name);
  return It == Stats.end() ? 0 : static_cast<double>(It->second.Count);
}

double SpanTable::meanMs(const std::string &Name) const {
  auto It = Stats.find(Name);
  if (It == Stats.end() || It->second.Count == 0)
    return 0;
  return It->second.TotalSeconds * 1e3 /
         static_cast<double>(It->second.Count);
}
