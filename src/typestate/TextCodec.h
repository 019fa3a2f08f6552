//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typestate text codec: the one module that decides how a typestate
/// value is written into a persisted payload and read back out of it.
/// The serve store (serve/Store.h) and the shard spool (shard/Spool.h)
/// carry bottom-up summaries in this text, the serve engine translates
/// retained summaries across a program edit through it, and checkpoints
/// (govern/Checkpoint.h) write and read the access-path sets of their
/// state rows with writeApSet and readStatePaths.
///
/// The text is a whitespace-separated token stream: every count-prefixed
/// sequence makes the grammar self-delimiting. Reading goes through
/// frame::Cursor (support/Frame.h), so every malformed input is a
/// LoadError(Corrupt) under the cursor's format.
///
/// Summaries are symbolic: every variable, field, procedure, and class is
/// written by *name*, never by Symbol id — a re-parse after an edit interns
/// symbols in a different order, and the codec's parse side takes the
/// target Program and re-interns, so decode(encode(S, OldProg), NewProg)
/// is exactly the old summary expressed in the new program's vocabulary.
/// Typestate indices and allocation-site ids are written numerically: the
/// spec block is not editable through procedure replacement, and the
/// parser's dense-site-id invariant pins every site id across any edit
/// that parses.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_TYPESTATE_TEXTCODEC_H
#define SWIFT_TYPESTATE_TEXTCODEC_H

#include "framework/RelationalSolver.h"
#include "support/Frame.h"
#include "typestate/TsAnalysis.h"

#include <string>
#include <string_view>

namespace swift {

using TsSummary = RelationalSolver<TsAnalysis>::Summary;

/// Builds token text: tokens on one line are separated by one blank, and
/// nl() ends the line.
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

/// An access-path set as "<n> <path>..." (dotted names).
void writeApSet(TokenWriter &W, const SymbolTable &Syms, const ApSet &S);

/// Reads the must and must-not sets (two writeApSet texts) that follow a
/// state's allocation site and typestate, interning every name into
/// \p Prog, and builds the state. Rejects a \p Site that is not one of
/// \p Prog's allocation sites and a path in both sets (no analysis
/// produces one, and the state constructor asserts against it).
TsAbstractState readStatePaths(frame::Cursor &R, Program &Prog,
                               uint64_t Site, TState T);

/// Serializes \p S against \p Prog's symbol table (names, not ids).
std::string summaryToText(const Program &Prog, const TsSummary &S);

/// Parses \p Text, interning every name into \p Prog. Throws
/// LoadError(Corrupt) on malformed input, names that do not resolve
/// (procedure names in may-alias constraints must exist in \p Prog), or
/// typestates outside the tracked spec's \p NumStates states (every iota
/// maps exactly those states). Relation vectors are re-sorted after
/// interning: symbol ids order relations, and ids shift across programs.
TsSummary parseSummaryText(Program &Prog, size_t NumStates,
                           std::string_view Text);

} // namespace swift

#endif // SWIFT_TYPESTATE_TEXTCODEC_H
