//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typestate text codec (see TextCodec.h).
///
//===----------------------------------------------------------------------===//

#include "typestate/TextCodec.h"

#include <algorithm>

using namespace swift;

//===----------------------------------------------------------------------===//
// Access-path sets and the states that hold them
//===----------------------------------------------------------------------===//

namespace {

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

} // namespace

void swift::writeApSet(TokenWriter &W, const SymbolTable &Syms,
                       const ApSet &S) {
  W.num(S.size());
  for (const AccessPath &P : S)
    W.tok(P.str(Syms));
}

TsAbstractState swift::readStatePaths(frame::Cursor &R, Program &Prog,
                                      uint64_t Site, TState T) {
  if (Site >= Prog.numSites())
    R.fail("allocation site @" + std::to_string(Site) + " out of range");
  ApSet Must = readApSet(R, Prog);
  ApSet MustNot = readApSet(R, Prog);
  for (const AccessPath &P : Must)
    if (MustNot.contains(P))
      R.fail("access path '" + P.str(Prog.symbols()) +
             "' is both must and must-not");
  return TsAbstractState(static_cast<SiteId>(Site), T, std::move(Must),
                         std::move(MustNot));
}

namespace {

//===----------------------------------------------------------------------===//
// Encoders (names, never Symbol ids)
//===----------------------------------------------------------------------===//

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
  TState T = readTState(R, NumStates);
  return readStatePaths(R, Prog, Site, T);
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

std::string swift::summaryToText(const Program &Prog, const TsSummary &S) {
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

TsSummary swift::parseSummaryText(Program &Prog, size_t NumStates,
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

