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
#include "typestate/TextCodec.h"

#include <sstream>
#include <stdexcept>

using namespace swift;

namespace {

constexpr std::string_view MagicV1 = "swift-ckpt v1";
constexpr std::string_view MagicV2 = "swift-ckpt v2 ";
/// The format every payload error is reported under.
constexpr std::string_view Format = "swift-ckpt";

void printState(std::ostream &OS, const TsAbstractState &S,
                const Program &Prog, const TypestateSpec &Spec) {
  if (S.isLambda()) {
    OS << "s L\n";
    return;
  }
  const SymbolTable &Syms = Prog.symbols();
  TokenWriter W;
  W.tok("s");
  W.num(S.site());
  W.tok(Syms.text(Spec.stateName(S.tstate())));
  writeApSet(W, Syms, S.must());
  writeApSet(W, Syms, S.mustNot());
  OS << W.take();
}

ProcId procByName(const frame::Cursor &R, Program &Prog,
                  std::string_view Name) {
  ProcId P = Prog.procId(Prog.symbols().intern(Name));
  if (P == InvalidProc)
    R.fail("unknown procedure '" + std::string(Name) + "'");
  return P;
}

TState stateByName(const frame::Cursor &R, const TypestateSpec &Spec,
                   const SymbolTable &Syms, std::string_view Name) {
  for (size_t T = 0; T != Spec.numStates(); ++T)
    if (Syms.text(Spec.stateName(static_cast<TState>(T))) == Name)
      return static_cast<TState>(T);
  R.fail("unknown typestate '" + std::string(Name) + "'");
}

/// A section header "<Name> <n>". Every row costs at least two bytes of
/// input, so a count beyond half the rest of the payload is a mutation:
/// it fails here, before anything reserves for it.
uint64_t sectionCount(frame::Cursor &R, std::string_view Name) {
  std::string_view Field = R.fields(Name, 2)[1];
  uint64_t N = R.dec(Field);
  if (N > R.remaining() / 2 + 1)
    R.fail(std::string(Name) + " count " + std::string(Field) +
           " exceeds the remaining input size");
  return N;
}

/// A row of variable width: a cursor over the next line, past its tag.
frame::Cursor row(frame::Cursor &R, std::string_view Tag) {
  frame::Cursor Row(R.line(), Format);
  Row.expect(Tag);
  return Row;
}

/// Rejects anything left on \p Row after its last field.
void endRow(frame::Cursor &Row) {
  Row.skipSpace();
  if (!Row.atEnd())
    Row.fail("trailing tokens on row");
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
  // The manifest, async and threads fields are kept for format
  // compatibility and always 1, 0 and 1.
  OS << " theta " << C.Config.Theta << " manifest 1 async 0 threads 1\n";
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
  frame::Cursor R(Text, Format);
  if (R.line() != MagicV1)
    R.fail("expected 'swift-ckpt v1' header");

  ParsedCheckpoint PC;
  TsCheckpoint &C = PC.Checkpoint;
  C.TrackedClass = std::string(R.fields("tracked", 2)[1]);
  {
    std::vector<std::string_view> T = frame::split(R.line());
    if (T.size() != 11 || T[0] != "config" || T[1] != "k" ||
        T[3] != "theta" || T[5] != "manifest" || T[7] != "async" ||
        T[9] != "threads")
      R.fail("malformed config line");
    C.Config.K = T[2] == "td" ? NoBuTrigger : R.dec(T[2]);
    // The same range swift-analyze --theta accepts.
    C.Config.Theta = R.dec(T[4]);
    if (C.Config.Theta == 0)
      R.fail("theta must be at least 1");
    // manifest 0, async 1 and threads > 1 were written by runs without
    // the observation manifest, with asynchronous bottom-up, and with
    // multi-threaded triggered solves, modes that no longer exist. The
    // snapshot holds no bottom-up state, so such a checkpoint resumes
    // with the manifest, synchronously, on one thread; the fields are
    // still range-checked.
    (void)R.dec(T[6], 1);
    (void)R.dec(T[8], 1);
    unsigned Threads = 1;
    if (!cli::parseUnsigned(T[10], Threads, 1, 1024))
      R.fail("threads must be in [1, 1024], got '" + std::string(T[10]) +
             "'");
  }
  C.StepsConsumed = R.dec(R.fields("steps", 2)[1]);

  if (R.line() != "program begin")
    R.fail("expected 'program begin'");
  std::string ProgText;
  for (std::string_view L = R.line(); L != "program end"; L = R.line()) {
    ProgText += L;
    ProgText += '\n';
  }
  try {
    PC.Prog = parseProgramText(ProgText);
  } catch (const std::exception &E) {
    R.fail(std::string("embedded program does not parse: ") + E.what());
  }
  Program &Prog = *PC.Prog;
  const TypestateSpec *Spec =
      Prog.specFor(Prog.symbols().intern(C.TrackedClass));
  if (!Spec)
    R.fail("program has no spec for tracked class '" + C.TrackedClass + "'");

  TsTabSnapshot &S = C.Snapshot;
  S.StepsConsumed = C.StepsConsumed;

  uint64_t N = sectionCount(R, "states");
  S.States.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    frame::Cursor Row = row(R, "s");
    std::string_view Site = Row.token();
    if (Site == "L") {
      S.States.push_back(TsAbstractState::lambda());
    } else {
      TState T = stateByName(Row, *Spec, Prog.symbols(), Row.token());
      S.States.push_back(readStatePaths(Row, Prog, Row.dec(Site), T));
    }
    endRow(Row);
  }
  auto checkStateId = [&](uint64_t Id) -> uint32_t {
    if (Id >= S.States.size())
      R.fail("state id out of range");
    return static_cast<uint32_t>(Id);
  };
  auto checkNode = [&](ProcId P, uint64_t Node) -> NodeId {
    if (Node >= Prog.proc(P).numNodes())
      R.fail("node id out of range");
    return static_cast<NodeId>(Node);
  };
  // Only the Lambda entry reaches the Lambda state; the solver asserts
  // that no path edge or summary of another entry does.
  auto checkReach = [&](uint32_t Entry, uint32_t Cur) {
    if (!S.States[Entry].isLambda() && S.States[Cur].isLambda())
      R.fail("a non-Lambda entry reaches the Lambda state");
  };

  N = sectionCount(R, "edges");
  S.Edges.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = R.fields("e", 5);
    ProcId P = procByName(R, Prog, T[1]);
    S.Edges.push_back({P, checkNode(P, R.dec(T[2])),
                       checkStateId(R.dec(T[3])), checkStateId(R.dec(T[4]))});
    checkReach(S.Edges.back().Entry, S.Edges.back().Cur);
  }

  N = sectionCount(R, "work");
  S.Work.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = R.fields("w", 5);
    ProcId P = procByName(R, Prog, T[1]);
    S.Work.push_back({P, checkNode(P, R.dec(T[2])),
                      checkStateId(R.dec(T[3])), checkStateId(R.dec(T[4]))});
    checkReach(S.Work.back().Entry, S.Work.back().Cur);
  }

  N = sectionCount(R, "summaries");
  S.Summaries.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    frame::Cursor Row = row(R, "y");
    TsTabSnapshot::SummaryRow Y;
    Y.Proc = procByName(Row, Prog, Row.token());
    Y.Entry = checkStateId(Row.number());
    uint64_t NumExits = Row.count();
    for (uint64_t K = 0; K != NumExits; ++K) {
      Y.Exits.push_back(checkStateId(Row.number()));
      checkReach(Y.Entry, Y.Exits.back());
    }
    endRow(Row);
    S.Summaries.push_back(std::move(Y));
  }

  N = sectionCount(R, "deps");
  S.Dependents.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = R.fields("d", 7);
    TsTabSnapshot::DependentRow D;
    D.Callee = procByName(R, Prog, T[1]);
    D.Entry = checkStateId(R.dec(T[2]));
    D.CallerProc = procByName(R, Prog, T[3]);
    D.CallNode = checkNode(D.CallerProc, R.dec(T[4]));
    D.CallerEntry = checkStateId(R.dec(T[5]));
    D.Frame = checkStateId(R.dec(T[6]));
    S.Dependents.push_back(D);
  }

  N = sectionCount(R, "incoming");
  S.Incoming.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = R.fields("i", 4);
    ProcId P = procByName(R, Prog, T[1]);
    S.Incoming.push_back({P, checkStateId(R.dec(T[2])), R.dec(T[3])});
  }

  N = sectionCount(R, "evercalled");
  S.EverCalled.assign(Prog.numProcs(), 0);
  if (N != Prog.numProcs())
    R.fail("evercalled count does not match procedure count");
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = R.fields("c", 3);
    ProcId P = procByName(R, Prog, T[1]);
    S.EverCalled[P] = R.dec(T[2], 1) != 0 ? 1 : 0;
  }

  N = sectionCount(R, "observed");
  S.Observed.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string_view> T = R.fields("o", 4);
    ProcId P = procByName(R, Prog, T[1]);
    NodeId Node = checkNode(P, R.dec(T[2]));
    uint32_t Id = checkStateId(R.dec(T[3]));
    // The manifest observes only states in the tracked spec's error
    // state; the verdict read-out asserts it.
    if (S.States[Id].isLambda() || S.States[Id].tstate() != Spec->errorState())
      R.fail("observed state is not an error state");
    S.Observed.push_back({P, Node, Id});
  }

  if (!R.atEnd())
    R.fail("trailing content after checkpoint");
  return PC;
}

//===----------------------------------------------------------------------===//
// v2 file framing (support/Frame.h) around the v1 payload
//===----------------------------------------------------------------------===//

std::string swift::frameCheckpointV2(std::string_view Payload) {
  return frame::encode(MagicV2, Payload);
}

ParsedCheckpoint swift::parseCheckpointFile(std::string_view Text) {
  // Legacy bare v1: the whole file is the payload, no framing to check.
  bool Legacy = Text.substr(0, MagicV1.size()) == MagicV1;
  return parseCheckpointText(Legacy ? Text : frame::decode(MagicV2, Text));
}

void swift::saveCheckpointFile(const std::string &Path, const Program &Prog,
                               const TsCheckpoint &C) {
  writeFileAtomic(Path, frameCheckpointV2(checkpointToText(Prog, C)),
                  "ckpt.save");
}

ParsedCheckpoint swift::loadCheckpointFile(const std::string &Path) {
  return parseCheckpointFile(frame::readFile(Format, Path, "ckpt.load"));
}
