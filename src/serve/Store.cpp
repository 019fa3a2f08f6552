//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Framed store files (see Store.h). Each procedure's summary travels as
/// the typestate text codec's summary text (typestate/TextCodec.h).
///
//===----------------------------------------------------------------------===//

#include "serve/Store.h"

#include "ir/Dumper.h"
#include "support/AtomicFile.h"
#include "support/Frame.h"

using namespace swift;
using namespace swift::serve;

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
