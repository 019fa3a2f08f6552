//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "govern/Checkpoint.h"

#include "framework/Tabulation.h"
#include "ir/Dumper.h"
#include "ir/Program.h"
#include "support/AtomicFile.h"
#include "support/CliParse.h"
#include "support/Frame.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

using namespace swift;

namespace {

[[noreturn]] void fail(size_t Line, const std::string &Msg) {
  throw std::runtime_error("swift-ckpt line " + std::to_string(Line) + ": " +
                           Msg);
}

void printState(std::ostream &OS, const TsAbstractState &S,
                const Program &Prog, const TypestateSpec &Spec) {
  if (S.isLambda()) {
    OS << "s L\n";
    return;
  }
  const SymbolTable &Syms = Prog.symbols();
  OS << "s " << S.site() << ' ' << Syms.text(Spec.stateName(S.tstate()))
     << ' ' << S.must().size();
  for (const AccessPath &P : S.must())
    OS << ' ' << P.str(Syms);
  OS << ' ' << S.mustNot().size();
  for (const AccessPath &P : S.mustNot())
    OS << ' ' << P.str(Syms);
  OS << '\n';
}

/// A decimal field no greater than \p Max (strict: digits only).
uint64_t num(std::string_view T, size_t Line, uint64_t Max = UINT64_MAX) {
  uint64_t V = 0;
  if (!cli::parseU64(T, V, Max))
    fail(Line, "expected a number" +
                   (Max == UINT64_MAX ? "" : " <= " + std::to_string(Max)) +
                   ", got '" + std::string(T) + "'");
  return V;
}

/// Line-oriented reader over the checkpoint text.
struct Reader {
  std::string_view Text;
  size_t Pos = 0;
  size_t Line = 0;

  /// Next raw line (no skipping) — used inside the verbatim program block.
  bool nextRaw(std::string_view &Out) {
    if (Pos >= Text.size())
      return false;
    size_t End = std::min(Text.find('\n', Pos), Text.size());
    Out = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++Line;
    if (!Out.empty() && Out.back() == '\r')
      Out.remove_suffix(1);
    return true;
  }

  /// Next line, '#' comments and blank lines skipped.
  bool next(std::string_view &Out) {
    while (nextRaw(Out)) {
      size_t First = Out.find_first_not_of(" \t");
      if (First != std::string_view::npos && Out[First] != '#')
        return true;
    }
    return false;
  }
};

ProcId procByName(Program &Prog, std::string_view Name, size_t Line) {
  ProcId P = Prog.procId(Prog.symbols().intern(Name));
  if (P == InvalidProc)
    fail(Line, "unknown procedure '" + std::string(Name) + "'");
  return P;
}

TState stateByName(const TypestateSpec &Spec, const SymbolTable &Syms,
                   std::string_view Name, size_t Line) {
  for (size_t T = 0; T != Spec.numStates(); ++T)
    if (Syms.text(Spec.stateName(static_cast<TState>(T))) == Name)
      return static_cast<TState>(T);
  fail(Line, "unknown typestate '" + std::string(Name) + "'");
}

/// Spec lookup by class name that works on a const Program (no interning).
const TypestateSpec *specByName(const Program &Prog,
                                const std::string &Class) {
  for (size_t I = 0; I != Prog.numSpecs(); ++I)
    if (Prog.symbols().text(Prog.spec(I).name()) == Class)
      return &Prog.spec(I);
  return nullptr;
}

} // namespace

std::string swift::checkpointToText(const Program &Prog,
                                    const TsCheckpoint &C) {
  const TypestateSpec *Spec = specByName(Prog, C.TrackedClass);
  if (!Spec)
    throw std::runtime_error("checkpointToText: no spec for class '" +
                             C.TrackedClass + "'");
  const SymbolTable &Syms = Prog.symbols();
  const TsTabSnapshot &S = C.Snapshot;
  std::ostringstream OS;
  OS << "swift-ckpt v1\n";
  OS << "tracked " << C.TrackedClass << '\n';
  OS << "config k ";
  if (C.Config.K == NoBuTrigger)
    OS << "td";
  else
    OS << C.Config.K;
  // The manifest and async fields are kept for format compatibility and
  // always 1 and 0.
  OS << " theta " << C.Config.Theta << " manifest 1 async 0 threads "
     << C.Config.Threads << '\n';
  OS << "steps " << C.StepsConsumed << '\n';
  OS << "program begin\n";
  OS << programToText(Prog);
  OS << "program end\n";

  OS << "states " << S.States.size() << '\n';
  for (const TsAbstractState &St : S.States)
    printState(OS, St, Prog, *Spec);

  OS << "edges " << S.Edges.size() << '\n';
  for (const auto &E : S.Edges)
    OS << "e " << Syms.text(Prog.proc(E.Proc).name()) << ' ' << E.Node
       << ' ' << E.Entry << ' ' << E.Cur << '\n';

  OS << "work " << S.Work.size() << '\n';
  for (const auto &W : S.Work)
    OS << "w " << Syms.text(Prog.proc(W.Proc).name()) << ' ' << W.Node
       << ' ' << W.Entry << ' ' << W.Cur << '\n';

  OS << "summaries " << S.Summaries.size() << '\n';
  for (const auto &Row : S.Summaries) {
    OS << "y " << Syms.text(Prog.proc(Row.Proc).name()) << ' ' << Row.Entry
       << ' ' << Row.Exits.size();
    for (uint32_t X : Row.Exits)
      OS << ' ' << X;
    OS << '\n';
  }

  OS << "deps " << S.Dependents.size() << '\n';
  for (const auto &D : S.Dependents)
    OS << "d " << Syms.text(Prog.proc(D.Callee).name()) << ' ' << D.Entry
       << ' ' << Syms.text(Prog.proc(D.CallerProc).name()) << ' '
       << D.CallNode << ' ' << D.CallerEntry << ' ' << D.Frame << '\n';

  OS << "incoming " << S.Incoming.size() << '\n';
  for (const auto &I : S.Incoming)
    OS << "i " << Syms.text(Prog.proc(I.Proc).name()) << ' ' << I.Entry
       << ' ' << I.Count << '\n';

  OS << "evercalled " << S.EverCalled.size() << '\n';
  for (size_t P = 0; P != S.EverCalled.size(); ++P)
    OS << "c " << Syms.text(Prog.proc(static_cast<ProcId>(P)).name()) << ' '
       << (S.EverCalled[P] ? 1 : 0) << '\n';

  OS << "observed " << S.Observed.size() << '\n';
  for (const auto &O : S.Observed)
    OS << "o " << Syms.text(Prog.proc(O.Proc).name()) << ' ' << O.Node
       << ' ' << O.StateId << '\n';

  return OS.str();
}

ParsedCheckpoint swift::parseCheckpointText(std::string_view Text) {
  Reader R{Text};
  std::string_view L;

  if (!R.next(L) || L != "swift-ckpt v1")
    fail(R.Line, "expected 'swift-ckpt v1' header");

  ParsedCheckpoint PC;
  TsCheckpoint &C = PC.Checkpoint;

  if (!R.next(L))
    fail(R.Line, "unexpected end of file");
  {
    std::vector<std::string_view> T = frame::split(L);
    if (T.size() != 2 || T[0] != "tracked")
      fail(R.Line, "expected 'tracked <class>'");
    C.TrackedClass = std::string(T[1]);
  }

  if (!R.next(L))
    fail(R.Line, "unexpected end of file");
  {
    std::vector<std::string_view> T = frame::split(L);
    if (T.size() != 11 || T[0] != "config" || T[1] != "k" ||
        T[3] != "theta" || T[5] != "manifest" || T[7] != "async" ||
        T[9] != "threads")
      fail(R.Line, "malformed config line");
    C.Config.K = T[2] == "td" ? NoBuTrigger : num(T[2], R.Line);
    C.Config.Theta = num(T[4], R.Line);
    // manifest 0 and async 1 were written by runs without the observation
    // manifest and with asynchronous bottom-up, modes that no longer
    // exist. The snapshot holds no bottom-up state, so such a checkpoint
    // resumes with the manifest, synchronously; both fields are still
    // range-checked.
    (void)num(T[6], R.Line, 1);
    (void)num(T[8], R.Line, 1);
    // The same range swift-analyze --threads accepts.
    if (!cli::parseUnsigned(T[10], C.Config.Threads, 1, 1024))
      fail(R.Line, "threads must be in [1, 1024], got '" +
                       std::string(T[10]) + "'");
  }

  if (!R.next(L))
    fail(R.Line, "unexpected end of file");
  {
    std::vector<std::string_view> T = frame::split(L);
    if (T.size() != 2 || T[0] != "steps")
      fail(R.Line, "expected 'steps <n>'");
    C.StepsConsumed = num(T[1], R.Line);
  }

  if (!R.next(L) || L != "program begin")
    fail(R.Line, "expected 'program begin'");
  std::string ProgText;
  for (;;) {
    if (!R.nextRaw(L))
      fail(R.Line, "unterminated program block");
    if (L == "program end")
      break;
    ProgText += L;
    ProgText += '\n';
  }
  PC.Prog = parseProgramText(ProgText);
  Program &Prog = *PC.Prog;
  const TypestateSpec *Spec =
      Prog.specFor(Prog.symbols().intern(C.TrackedClass));
  if (!Spec)
    fail(R.Line, "program has no spec for tracked class '" +
                     C.TrackedClass + "'");

  auto expectSection = [&](const char *Name) -> uint64_t {
    if (!R.next(L))
      fail(R.Line, std::string("expected '") + Name + " <n>'");
    std::vector<std::string_view> T = frame::split(L);
    if (T.size() != 2 || T[0] != Name)
      fail(R.Line, std::string("expected '") + Name + " <n>', got '" +
                       std::string(L) + "'");
    uint64_t N = num(T[1], R.Line);
    // Sanity limit before any reserve: every row costs at least two
    // bytes of input, so a count beyond half the remaining text is a
    // mutation — fail fast instead of allocating for it.
    size_t Remaining = Text.size() - std::min(R.Pos, Text.size());
    if (N > Remaining / 2 + 1)
      fail(R.Line, std::string(Name) + " count " + std::string(T[1]) +
                       " exceeds the remaining input size");
    return N;
  };
  auto row = [&](const char *Tag,
                 size_t MinToks) -> std::vector<std::string_view> {
    if (!R.next(L))
      fail(R.Line, std::string("unexpected end of '") + Tag + "' row");
    std::vector<std::string_view> T = frame::split(L);
    if (T.size() < MinToks || T[0] != Tag)
      fail(R.Line, std::string("malformed '") + Tag + "' row: '" +
                       std::string(L) + "'");
    return T;
  };

  TsTabSnapshot &S = C.Snapshot;
  S.StepsConsumed = C.StepsConsumed;

  uint64_t N = expectSection("states");
  S.States.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("s", 2);
    if (T[1] == "L") {
      if (T.size() != 2)
        fail(R.Line, "trailing tokens on Lambda state");
      S.States.push_back(TsAbstractState::lambda());
      continue;
    }
    if (T.size() < 4)
      fail(R.Line, "truncated state row");
    uint64_t Site = num(T[1], R.Line);
    if (Site >= Prog.numSites())
      fail(R.Line, "allocation site out of range");
    TState TS = stateByName(*Spec, Prog.symbols(), T[2], R.Line);
    size_t Idx = 3;
    auto readPaths = [&]() -> ApSet {
      if (Idx >= T.size())
        fail(R.Line, "truncated state row");
      uint64_t Count = num(T[Idx++], R.Line);
      std::vector<AccessPath> Paths;
      for (uint64_t K = 0; K != Count; ++K) {
        if (Idx >= T.size())
          fail(R.Line, "truncated access-path list");
        std::optional<AccessPath> P =
            AccessPath::parse(T[Idx], Prog.symbols());
        if (!P)
          fail(R.Line, "malformed access path '" + std::string(T[Idx]) + "'");
        Paths.push_back(*P);
        ++Idx;
      }
      return ApSet(std::move(Paths));
    };
    ApSet Must = readPaths();
    ApSet MustNot = readPaths();
    if (Idx != T.size())
      fail(R.Line, "trailing tokens on state row");
    S.States.push_back(TsAbstractState(static_cast<SiteId>(Site), TS,
                                       std::move(Must),
                                       std::move(MustNot)));
  }
  auto checkStateId = [&](uint64_t Id) -> uint32_t {
    if (Id >= S.States.size())
      fail(R.Line, "state id out of range");
    return static_cast<uint32_t>(Id);
  };
  auto checkNode = [&](ProcId P, uint64_t Node) -> NodeId {
    if (Node >= Prog.proc(P).numNodes())
      fail(R.Line, "node id out of range");
    return static_cast<NodeId>(Node);
  };

  N = expectSection("edges");
  S.Edges.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("e", 5);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Edges.push_back({P, checkNode(P, num(T[2], R.Line)),
                       checkStateId(num(T[3], R.Line)),
                       checkStateId(num(T[4], R.Line))});
  }

  N = expectSection("work");
  S.Work.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("w", 5);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Work.push_back({P, checkNode(P, num(T[2], R.Line)),
                      checkStateId(num(T[3], R.Line)),
                      checkStateId(num(T[4], R.Line))});
  }

  N = expectSection("summaries");
  S.Summaries.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("y", 4);
    TsTabSnapshot::SummaryRow Row;
    Row.Proc = procByName(Prog, T[1], R.Line);
    Row.Entry = checkStateId(num(T[2], R.Line));
    uint64_t NumExits = num(T[3], R.Line);
    // Bound before the arithmetic below: a near-2^64 count would wrap
    // 4 + NumExits and walk T out of bounds.
    if (NumExits > T.size() || T.size() != 4 + NumExits)
      fail(R.Line, "summary exit count mismatch");
    for (uint64_t K = 0; K != NumExits; ++K)
      Row.Exits.push_back(checkStateId(num(T[4 + K], R.Line)));
    S.Summaries.push_back(std::move(Row));
  }

  N = expectSection("deps");
  S.Dependents.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("d", 7);
    TsTabSnapshot::DependentRow D;
    D.Callee = procByName(Prog, T[1], R.Line);
    D.Entry = checkStateId(num(T[2], R.Line));
    D.CallerProc = procByName(Prog, T[3], R.Line);
    D.CallNode = checkNode(D.CallerProc, num(T[4], R.Line));
    D.CallerEntry = checkStateId(num(T[5], R.Line));
    D.Frame = checkStateId(num(T[6], R.Line));
    S.Dependents.push_back(D);
  }

  N = expectSection("incoming");
  S.Incoming.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("i", 4);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Incoming.push_back(
        {P, checkStateId(num(T[2], R.Line)), num(T[3], R.Line)});
  }

  N = expectSection("evercalled");
  S.EverCalled.assign(Prog.numProcs(), 0);
  if (N != Prog.numProcs())
    fail(R.Line, "evercalled count does not match procedure count");
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("c", 3);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.EverCalled[P] = num(T[2], R.Line, 1) != 0 ? 1 : 0;
  }

  N = expectSection("observed");
  S.Observed.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = row("o", 4);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Observed.push_back({P, checkNode(P, num(T[2], R.Line)),
                          checkStateId(num(T[3], R.Line))});
  }

  if (R.next(L))
    fail(R.Line, "trailing content after checkpoint: '" + std::string(L) +
                     "'");
  return PC;
}

//===----------------------------------------------------------------------===//
// v2 file framing (support/Frame.h) around the v1 payload
//===----------------------------------------------------------------------===//

namespace {
constexpr std::string_view MagicV1 = "swift-ckpt v1";
constexpr std::string_view MagicV2 = "swift-ckpt v2 ";
} // namespace

std::string swift::frameCheckpointV2(std::string_view Payload) {
  return frame::encode(MagicV2, Payload);
}

ParsedCheckpoint swift::parseCheckpointFile(std::string_view Text) {
  // Legacy bare v1: the whole file is the payload, no framing to check.
  bool Legacy = Text.substr(0, MagicV1.size()) == MagicV1;
  std::string_view Payload = Legacy ? Text : frame::decode(MagicV2, Text);
  try {
    return parseCheckpointText(Payload);
  } catch (const std::exception &E) {
    // A v2 frame validated but the payload does not parse: a producer
    // bug or a collision-rate event, not a torn file.
    throw LoadError(LoadErrorKind::Corrupt, frame::family(MagicV2),
                    std::string(Legacy ? "invalid v1 checkpoint: "
                                       : "invalid v2 payload: ") +
                        E.what());
  }
}

void swift::saveCheckpointFile(const std::string &Path, const Program &Prog,
                               const TsCheckpoint &C) {
  writeFileAtomic(Path, frameCheckpointV2(checkpointToText(Prog, C)),
                  "ckpt.save");
}

ParsedCheckpoint swift::loadCheckpointFile(const std::string &Path) {
  return parseCheckpointFile(
      frame::readFile(frame::family(MagicV2), Path, "ckpt.load"));
}
