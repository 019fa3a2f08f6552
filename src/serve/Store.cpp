//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Summary text codec and framed store files (see Store.h). The codec is a
/// whitespace-separated token stream: every count-prefixed sequence makes
/// the grammar self-delimiting, and symbolic entities travel as names so
/// the parse side can intern them into *any* program — that one property
/// is both the warm-start path and the cross-edit summary translator.
///
//===----------------------------------------------------------------------===//

#include "serve/Store.h"

#include "ir/Dumper.h"
#include "support/AtomicFile.h"
#include "support/Frame.h"

#include <algorithm>

using namespace swift;
using namespace swift::serve;

//===----------------------------------------------------------------------===//
// Token writer
//===----------------------------------------------------------------------===//

namespace {

class TokenWriter {
public:
  void tok(std::string_view T) {
    if (!Out.empty() && Out.back() != '\n')
      Out += ' ';
    Out.append(T);
  }
  void num(uint64_t N) { tok(std::to_string(N)); }
  void nl() {
    if (Out.empty() || Out.back() != '\n')
      Out += '\n';
  }
  std::string take() {
    nl();
    return std::move(Out);
  }

private:
  std::string Out;
};

//===----------------------------------------------------------------------===//
// Encoders (names, never Symbol ids)
//===----------------------------------------------------------------------===//

void writeApSet(TokenWriter &W, const SymbolTable &Syms, const ApSet &S) {
  W.num(S.size());
  for (const AccessPath &P : S)
    W.tok(P.str(Syms));
}

void writeKill(TokenWriter &W, const SymbolTable &Syms, const KillSpec &K) {
  W.tok("kb");
  W.num(K.bases().size());
  for (Symbol B : K.bases())
    W.tok(Syms.text(B));
  W.tok("kd");
  W.num(K.defaultFields().size());
  for (Symbol F : K.defaultFields())
    W.tok(Syms.text(F));
  W.tok("kbb");
  W.num(K.byBase().size());
  for (const auto &[Base, Fields] : K.byBase()) {
    W.tok(Syms.text(Base));
    W.num(Fields.size());
    for (Symbol F : Fields)
      W.tok(Syms.text(F));
  }
}

void writePred(TokenWriter &W, const Program &Prog, const TsPred &P) {
  const SymbolTable &Syms = Prog.symbols();
  W.tok("ap");
  W.num(P.apConstraints().size());
  for (const TsPred::ApConstraint &C : P.apConstraints()) {
    W.tok(C.Path.str(Syms));
    W.num(static_cast<uint64_t>(C.InMust));
    W.num(static_cast<uint64_t>(C.InNot));
  }
  W.tok("may");
  W.num(P.mayConstraints().size());
  for (const TsPred::MayConstraint &C : P.mayConstraints()) {
    W.tok(Syms.text(Prog.proc(C.Proc).name()));
    W.tok(Syms.text(C.Var));
    W.num(C.Want ? 1 : 0);
  }
}

void writeState(TokenWriter &W, const SymbolTable &Syms,
                const TsAbstractState &S) {
  if (S.isLambda())
    throw std::logic_error("summary text: cannot serialize a Lambda alloc "
                           "output");
  W.num(S.site());
  W.num(S.tstate());
  writeApSet(W, Syms, S.must());
  writeApSet(W, Syms, S.mustNot());
}

void writeRel(TokenWriter &W, const Program &Prog, const TsRelation &R) {
  const SymbolTable &Syms = Prog.symbols();
  if (R.isAlloc()) {
    W.tok("A");
    writeState(W, Syms, R.out());
    return;
  }
  W.tok("T");
  W.tok("iota");
  W.num(R.iota().size());
  for (TState T : R.iota())
    W.num(T);
  W.tok("killa");
  writeKill(W, Syms, R.killA());
  W.tok("gena");
  writeApSet(W, Syms, R.genA());
  W.tok("killn");
  writeKill(W, Syms, R.killN());
  W.tok("genn");
  writeApSet(W, Syms, R.genN());
  W.tok("phi");
  writePred(W, Prog, R.phi());
}

void writeIgnore(TokenWriter &W, const Program &Prog, const char *Key,
                 const TsIgnoreSet &S) {
  W.tok(Key);
  W.num(S.containsLambda() ? 1 : 0);
  W.num(S.disjuncts().size());
  for (const TsPred &P : S.disjuncts())
    writePred(W, Prog, P);
}

//===----------------------------------------------------------------------===//
// Decoders (interning into the target program)
//===----------------------------------------------------------------------===//

AccessPath readPath(frame::Cursor &R, Program &Prog) {
  std::string_view T = R.token();
  std::optional<AccessPath> P = AccessPath::parse(T, Prog.symbols());
  if (!P)
    R.fail("malformed access path '" + std::string(T) + "'");
  return *P;
}

ApSet readApSet(frame::Cursor &R, Program &Prog) {
  uint64_t N = R.count();
  std::vector<AccessPath> Paths;
  Paths.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Paths.push_back(readPath(R, Prog));
  return ApSet(std::move(Paths));
}

KillSpec readKill(frame::Cursor &R, Program &Prog) {
  SymbolTable &Syms = Prog.symbols();
  R.expect("kb");
  uint64_t NB = R.count();
  std::vector<Symbol> Bases;
  for (uint64_t I = 0; I != NB; ++I)
    Bases.push_back(Syms.intern(R.token()));
  R.expect("kd");
  uint64_t ND = R.count();
  std::vector<Symbol> Defaults;
  for (uint64_t I = 0; I != ND; ++I)
    Defaults.push_back(Syms.intern(R.token()));
  R.expect("kbb");
  uint64_t NBB = R.count();
  std::vector<std::pair<Symbol, std::vector<Symbol>>> ByBase;
  for (uint64_t I = 0; I != NBB; ++I) {
    Symbol Base = Syms.intern(R.token());
    uint64_t NF = R.count();
    std::vector<Symbol> Fields;
    for (uint64_t J = 0; J != NF; ++J)
      Fields.push_back(Syms.intern(R.token()));
    ByBase.emplace_back(Base, std::move(Fields));
  }
  // Replay order matters: defaults first (ByBase is still empty, so
  // addFieldEverywhere touches only Default), then the per-base overrides
  // with their exact stored field sets, then whole-base kills (the stored
  // spec never has a ByBase entry for a killed base, so nothing is lost).
  KillSpec K;
  for (Symbol F : Defaults)
    K.addFieldEverywhere(F);
  for (auto &[Base, Fields] : ByBase)
    K.setBaseFields(Base, std::move(Fields));
  for (Symbol B : Bases)
    K.addBase(B);
  return K;
}

TsPred readPred(frame::Cursor &R, Program &Prog) {
  TsPred P;
  R.expect("ap");
  uint64_t NA = R.count();
  for (uint64_t I = 0; I != NA; ++I) {
    AccessPath Path = readPath(R, Prog);
    uint64_t InMust = R.number(2), InNot = R.number(2);
    // Stored predicates are satisfiable by construction, so a failing
    // replay means the text was corrupted, not that the edit is bad.
    if (InMust != 0 &&
        !P.requireMust(Path, InMust == uint64_t(ThreeVal::Yes)))
      R.fail("unsatisfiable replayed must constraint");
    if (InNot != 0 && !P.requireNot(Path, InNot == uint64_t(ThreeVal::Yes)))
      R.fail("unsatisfiable replayed must-not constraint");
  }
  R.expect("may");
  uint64_t NM = R.count();
  for (uint64_t I = 0; I != NM; ++I) {
    std::string_view ProcName = R.token();
    ProcId Proc = Prog.procId(Prog.symbols().intern(ProcName));
    if (Proc == InvalidProc)
      R.fail("may-alias constraint names unknown procedure '" +
             std::string(ProcName) + "'");
    Symbol Var = Prog.symbols().intern(R.token());
    bool Want = R.number(1) != 0;
    if (!P.requireMay(Proc, Var, Want))
      R.fail("unsatisfiable replayed may-alias constraint");
  }
  return P;
}

/// A typestate index of the tracked spec (\p NumStates states).
TState readTState(frame::Cursor &R, size_t NumStates) {
  return static_cast<TState>(R.number(NumStates - 1));
}

TsAbstractState readState(frame::Cursor &R, Program &Prog, size_t NumStates) {
  uint64_t Site = R.number();
  if (Site >= Prog.numSites())
    R.fail("allocation site @" + std::to_string(Site) + " out of range");
  TState T = readTState(R, NumStates);
  ApSet Must = readApSet(R, Prog);
  ApSet MustNot = readApSet(R, Prog);
  return TsAbstractState(static_cast<SiteId>(Site), T, std::move(Must),
                         std::move(MustNot));
}

TsRelation readRel(frame::Cursor &R, Program &Prog, size_t NumStates) {
  std::string_view Kind = R.token();
  if (Kind == "A")
    return TsRelation::makeAlloc(readState(R, Prog, NumStates));
  if (Kind != "T")
    R.fail("unknown relation kind '" + std::string(Kind) + "'");
  R.expect("iota");
  // iota maps every state of the tracked spec; rtrans and rcomp index it
  // (and its entries) without a bounds check.
  if (R.number() != NumStates)
    R.fail("iota does not map the spec's " + std::to_string(NumStates) +
           " states");
  std::vector<TState> Iota;
  Iota.reserve(NumStates);
  for (size_t I = 0; I != NumStates; ++I)
    Iota.push_back(readTState(R, NumStates));
  R.expect("killa");
  KillSpec KillA = readKill(R, Prog);
  R.expect("gena");
  ApSet GenA = readApSet(R, Prog);
  R.expect("killn");
  KillSpec KillN = readKill(R, Prog);
  R.expect("genn");
  ApSet GenN = readApSet(R, Prog);
  R.expect("phi");
  TsPred Phi = readPred(R, Prog);
  return TsRelation::makeTrans(std::move(Iota), std::move(KillA),
                               std::move(GenA), std::move(KillN),
                               std::move(GenN), std::move(Phi));
}

std::vector<TsRelation> readRels(frame::Cursor &R, Program &Prog,
                                 size_t NumStates, const char *Key) {
  R.expect(Key);
  uint64_t N = R.count();
  std::vector<TsRelation> Rels;
  Rels.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Rels.push_back(readRel(R, Prog, NumStates));
  // Relation order follows symbol ids, which shift across programs; the
  // solver's sorted-unique invariant must hold in the *target* program.
  std::sort(Rels.begin(), Rels.end());
  Rels.erase(std::unique(Rels.begin(), Rels.end()), Rels.end());
  return Rels;
}

TsIgnoreSet readIgnore(frame::Cursor &R, Program &Prog, const char *Key) {
  R.expect(Key);
  TsIgnoreSet S;
  if (R.number(1) != 0)
    S.addLambda();
  uint64_t N = R.count();
  for (uint64_t I = 0; I != N; ++I)
    (void)S.addPred(readPred(R, Prog)); // In-order replay; see header.
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Summary codec entry points
//===----------------------------------------------------------------------===//

std::string serve::summaryToText(const Program &Prog, const TsSummary &S) {
  TokenWriter W;
  W.tok("rels");
  W.num(S.Rels.size());
  W.nl();
  for (const TsRelation &R : S.Rels) {
    writeRel(W, Prog, R);
    W.nl();
  }
  W.tok("obsrels");
  W.num(S.ObsRels.size());
  W.nl();
  for (const TsRelation &R : S.ObsRels) {
    writeRel(W, Prog, R);
    W.nl();
  }
  writeIgnore(W, Prog, "sigma", S.Sigma);
  W.nl();
  writeIgnore(W, Prog, "sigmaall", S.SigmaAll);
  W.nl();
  W.tok("lambdaexit");
  W.num(S.LambdaExit ? 1 : 0);
  return W.take();
}

TsSummary serve::parseSummaryText(Program &Prog, size_t NumStates,
                                  std::string_view Text) {
  frame::Cursor R(Text, "summary text");
  if (NumStates == 0)
    R.fail("tracked spec has no states");
  TsSummary S;
  S.Rels = readRels(R, Prog, NumStates, "rels");
  S.ObsRels = readRels(R, Prog, NumStates, "obsrels");
  S.Sigma = readIgnore(R, Prog, "sigma");
  S.SigmaAll = readIgnore(R, Prog, "sigmaall");
  R.expect("lambdaexit");
  S.LambdaExit = R.number(1) != 0;
  R.skipSpace();
  if (!R.atEnd())
    R.fail("trailing tokens after summary");
  return S;
}

//===----------------------------------------------------------------------===//
// Store files
//===----------------------------------------------------------------------===//

namespace {

constexpr std::string_view StoreMagic = "swift-serve-store v1 ";
constexpr std::string_view ProgramBegin = "program-begin";
constexpr std::string_view ProgramEnd = "program-end";

} // namespace

std::string serve::encodeStore(const Program &Prog,
                               const std::string &TrackedClass,
                               const std::vector<StoredProc> &Procs) {
  std::string Payload;
  Payload += "tracked " + TrackedClass + "\n";
  // The program travels verbatim inside the store: a warm start must
  // solve exactly the program the summaries were computed against, and
  // the dense-length framing keeps the embedded text unambiguous.
  std::string ProgText = programToText(Prog);
  Payload.append(ProgramBegin);
  Payload += ' ';
  Payload += std::to_string(ProgText.size());
  Payload += '\n';
  Payload += ProgText;
  Payload.append(ProgramEnd);
  Payload += '\n';
  Payload += "procs " + std::to_string(Procs.size()) + "\n";
  for (const StoredProc &P : Procs) {
    Payload += "proc " + P.Name + " hash " + frame::hex(P.BodyHash, 16) +
               " fp " + frame::hex(P.OracleFp, 16) + " valid " +
               (P.HasSummary ? "1" : "0") + " deps " +
               std::to_string(P.Deps.size());
    for (const std::string &D : P.Deps)
      Payload += " " + D;
    Payload += '\n';
    if (P.HasSummary) {
      std::string Sum = summaryToText(Prog, P.Sum);
      Payload += "summary " + std::to_string(Sum.size()) + "\n";
      Payload += Sum;
    }
  }
  return frame::encode(StoreMagic, Payload);
}

ParsedStore serve::decodeStore(std::string_view Bytes) {
  frame::Cursor R(frame::decode(StoreMagic, Bytes), frame::family(StoreMagic));
  ParsedStore PS;
  PS.TrackedClass = std::string(R.fields("tracked", 2)[1]);
  std::string_view ProgText = R.bytes(R.dec(R.fields(ProgramBegin, 2)[1]));
  if (R.line() != ProgramEnd)
    R.fail("malformed program-end line");
  try {
    PS.Prog = parseProgramText(ProgText);
  } catch (const std::exception &E) {
    R.fail(std::string("embedded program does not parse: ") + E.what());
  }
  Program &Prog = *PS.Prog;
  const TypestateSpec *Spec =
      Prog.specFor(Prog.symbols().intern(PS.TrackedClass));
  if (!Spec)
    R.fail("embedded program has no spec for tracked class '" +
           PS.TrackedClass + "'");

  uint64_t NumProcs = R.dec(R.fields("procs", 2)[1]);
  if (NumProcs != Prog.numProcs())
    R.fail("store lists " + std::to_string(NumProcs) +
           " procedures, embedded program has " +
           std::to_string(Prog.numProcs()));
  std::vector<uint8_t> Seen(Prog.numProcs(), 0);
  for (uint64_t I = 0; I != NumProcs; ++I) {
    std::vector<std::string_view> F = frame::split(R.line());
    if (F.size() < 10 || F[0] != "proc" || F[2] != "hash" || F[4] != "fp" ||
        F[6] != "valid" || F[8] != "deps")
      R.fail("malformed 'proc' line");
    StoredProc P;
    P.Name = std::string(F[1]);
    P.BodyHash = R.hex(F[3], 16);
    P.OracleFp = R.hex(F[5], 16);
    P.HasSummary = R.dec(F[7], 1) != 0;
    if (R.dec(F[9]) != F.size() - 10)
      R.fail("proc line dep count does not match fields");
    P.Deps.assign(F.begin() + 10, F.end());
    ProcId Id = Prog.procId(Prog.symbols().intern(P.Name));
    if (Id == InvalidProc)
      R.fail("store names unknown procedure '" + P.Name + "'");
    if (Seen[Id])
      R.fail("duplicate record for procedure '" + P.Name + "'");
    Seen[Id] = 1;
    if (P.HasSummary)
      P.Sum = parseSummaryText(Prog, Spec->numStates(),
                               R.bytes(R.dec(R.fields("summary", 2)[1])));
    PS.Procs.push_back(std::move(P));
  }
  if (!R.atEnd())
    R.fail("trailing data after last procedure record");
  return PS;
}

void serve::saveStoreFile(const std::string &Path, const Program &Prog,
                          const std::string &TrackedClass,
                          const std::vector<StoredProc> &Procs) {
  writeFileAtomic(Path, encodeStore(Prog, TrackedClass, Procs),
                  "serve.save");
}

ParsedStore serve::loadStoreFile(const std::string &Path) {
  return decodeStore(
      frame::readFile(frame::family(StoreMagic), Path, "serve.load"));
}
