//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Frame.h"

#include "support/AtomicFile.h"
#include "support/Hashing.h"

#include <cstdio>

using namespace swift;

namespace {

constexpr std::string_view TrailerTag = "crc32 ";

bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

uint32_t crcOf(std::string_view Bytes) {
  return crc32(Bytes.data(), Bytes.size());
}

const char *kindName(LoadErrorKind K) {
  switch (K) {
  case LoadErrorKind::IoError:
    return "io-error";
  case LoadErrorKind::Truncated:
    return "truncated";
  case LoadErrorKind::Corrupt:
    return "corrupt";
  case LoadErrorKind::VersionMismatch:
    return "version-mismatch";
  }
  return "?";
}

/// Parses exactly \p Digits lowercase hex digits; false on anything else.
bool parseHex(std::string_view Text, size_t Digits, uint64_t &Out) {
  if (Text.size() != Digits || Digits > 16)
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    uint64_t D;
    if (C >= '0' && C <= '9')
      D = static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = static_cast<uint64_t>(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Out = V;
  return true;
}

} // namespace

LoadError::LoadError(LoadErrorKind Kind, std::string_view Format,
                     const std::string &Detail)
    : std::runtime_error(std::string(Format) + ": " + Detail + " [" +
                         kindName(Kind) + "]"),
      K(Kind) {}

std::string frame::hex(uint64_t V, int Digits) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%0*llx", Digits,
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string frame::trailer(std::string_view Covered) {
  return std::string(TrailerTag) + hex(crcOf(Covered), 8) + "\n";
}

bool frame::parseTrailer(std::string_view Text, uint32_t &Crc) {
  uint64_t V = 0;
  if (Text.size() != TrailerSize || !startsWith(Text, TrailerTag) ||
      Text.back() != '\n' ||
      !parseHex(Text.substr(TrailerTag.size(), 8), 8, V))
    return false;
  Crc = static_cast<uint32_t>(V);
  return true;
}

std::string_view frame::family(std::string_view Magic) {
  return Magic.substr(0, Magic.find_first_of(" \n"));
}

void frame::rejectMagic(std::string_view Magic, std::string_view Bytes) {
  std::string_view Format = family(Magic);
  if (startsWith(Magic, Bytes))
    throw LoadError(LoadErrorKind::Truncated, Format,
                    Bytes.empty() ? "empty file" : "magic line is cut short");
  if (startsWith(Bytes, std::string(Format) + " ")) {
    std::string_view Found = Bytes.substr(0, Bytes.find('\n'));
    throw LoadError(LoadErrorKind::VersionMismatch, Format,
                    "unsupported version '" +
                        std::string(Found.substr(0, 32)) + "' (expected '" +
                        std::string(Magic.substr(0, Magic.size() - 1)) +
                        "')");
  }
  throw LoadError(LoadErrorKind::Corrupt, Format,
                  "not a " + std::string(Format) + " file");
}

std::string frame::encode(std::string_view Magic, std::string_view Payload) {
  std::string Out;
  Out.reserve(Magic.size() + Payload.size() + 32);
  Out.append(Magic);
  Out += std::to_string(Payload.size());
  Out += '\n';
  Out.append(Payload);
  Out += trailer(Payload);
  return Out;
}

std::string_view frame::decode(std::string_view Magic,
                               std::string_view Bytes) {
  std::string_view Format = family(Magic);
  auto Fail = [Format](LoadErrorKind K, const std::string &Detail) {
    throw LoadError(K, Format, Detail);
  };
  if (!startsWith(Bytes, Magic))
    rejectMagic(Magic, Bytes);
  size_t Eol = Bytes.find('\n', Magic.size());
  if (Eol == std::string_view::npos)
    Fail(LoadErrorKind::Truncated, "header line is cut short");
  std::string_view LenText = Bytes.substr(Magic.size(), Eol - Magic.size());
  uint64_t Len = 0;
  if (!cli::parseU64(LenText, Len))
    Fail(LoadErrorKind::Corrupt,
         "malformed payload length '" + std::string(LenText) + "'");
  size_t Body = Eol + 1;
  if (Len > Bytes.size() - Body)
    Fail(LoadErrorKind::Truncated,
         "payload truncated: header declares " + std::to_string(Len) +
             " bytes, " + std::to_string(Bytes.size() - Body) + " present");
  std::string_view Payload = Bytes.substr(Body, Len);
  std::string_view Rest = Bytes.substr(Body + Len);
  if (Rest.size() < TrailerSize)
    Fail(LoadErrorKind::Truncated, "CRC trailer is missing or cut");
  if (Rest.size() > TrailerSize)
    Fail(LoadErrorKind::Corrupt, "trailing data after CRC trailer");
  uint32_t Stored = 0;
  if (!parseTrailer(Rest, Stored))
    Fail(LoadErrorKind::Corrupt, "malformed CRC trailer");
  uint32_t Computed = crcOf(Payload);
  if (Computed != Stored)
    Fail(LoadErrorKind::Corrupt, "CRC mismatch: stored " + hex(Stored, 8) +
                                     ", computed " + hex(Computed, 8));
  return Payload;
}

std::string frame::readFile(std::string_view Format, const std::string &Path,
                            const char *FailPrefix) {
  try {
    return readWholeFile(Path, FailPrefix);
  } catch (const IoError &E) {
    throw LoadError(LoadErrorKind::IoError, Format, E.what());
  }
}

std::vector<std::string_view> frame::split(std::string_view Line) {
  std::vector<std::string_view> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && isBlank(Line[I]))
      ++I;
    size_t Start = I;
    while (I < Line.size() && !isBlank(Line[I]))
      ++I;
    if (I > Start)
      Out.push_back(Line.substr(Start, I - Start));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Cursor
//===----------------------------------------------------------------------===//

using frame::Cursor;

std::string_view Cursor::line() {
  if (atEnd())
    fail("unexpected end of payload");
  size_t Eol = Text.find('\n', Pos);
  if (Eol == std::string_view::npos)
    fail("unterminated line in payload");
  std::string_view L = Text.substr(Pos, Eol - Pos);
  Pos = Eol + 1;
  return L;
}

std::vector<std::string_view> Cursor::fields(std::string_view Keyword,
                                             size_t N) {
  std::vector<std::string_view> F = split(line());
  if (F.size() != N || F[0] != Keyword)
    fail("malformed '" + std::string(Keyword) + "' line");
  return F;
}

std::string_view Cursor::bytes(uint64_t N) {
  if (N > Text.size() - Pos)
    fail("byte run of " + std::to_string(N) + " overruns the payload");
  std::string_view B = Text.substr(Pos, N);
  Pos += N;
  return B;
}

void Cursor::failExpected(std::string_view Keyword,
                          std::string_view Got) const {
  fail("expected '" + std::string(Keyword) + "', got '" + std::string(Got) +
       "'");
}

void Cursor::failNumber(std::string_view Field, uint64_t Max) const {
  fail("malformed number '" + std::string(Field) + "'" +
       (Max == UINT64_MAX ? "" : " (max " + std::to_string(Max) + ")"));
}

uint64_t Cursor::hex(std::string_view Field, size_t Digits) const {
  uint64_t V = 0;
  if (!parseHex(Field, Digits, V))
    fail("malformed hex field '" + std::string(Field) + "'");
  return V;
}

void Cursor::fail(const std::string &Detail) const {
  throw LoadError(LoadErrorKind::Corrupt, Format, Detail);
}
