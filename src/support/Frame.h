//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk framing codec. Every persisted file — the checkpoint
/// (govern/Checkpoint.h), the serve store and edit journal
/// (serve/Store.h, serve/Journal.h), and the shard spool (shard/Spool.h)
/// — keeps only its payload grammar; the bytes around the payload, and
/// the error a loader throws when they do not validate, live here:
///
///   whole file    <magic><len>\n<payload>crc32 <hex8>\n
///   trailer       crc32 <hex8>\n   (CRC-32 of the covered bytes; exactly
///                                  8 lowercase hex digits)
///
/// A whole-file frame's CRC covers the payload; a journal record's
/// trailer covers its header line, name and body. Decoding classifies
/// every failure as one typed LoadError: a cut anywhere after the magic
/// is Truncated, a flipped payload bit or any non-canonical frame byte
/// is Corrupt, the right file family with another version is
/// VersionMismatch. docs/MANUAL.md section 8 tabulates the four formats
/// and what each loader does with a torn file.
///
/// Decimal fields parse with cli::parseU64 (strict: digits only), hex
/// fields strictly as exactly N lowercase digits, so no format accepts a
/// sign, a blank, or a value wider than it prints.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SUPPORT_FRAME_H
#define SWIFT_SUPPORT_FRAME_H

#include "support/CliParse.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace swift {

/// Why a persisted file failed to load.
enum class LoadErrorKind {
  IoError,         ///< open/read failed; message carries errno detail.
  Truncated,       ///< Shorter than its magic/header/trailer declares.
  Corrupt,         ///< Framing present but CRC, frame or payload invalid.
  VersionMismatch, ///< The format's family with an unsupported version.
};

/// Typed load failure: what() reads "<format>: <detail> [<kind>]", kind()
/// lets callers tell malformed input from environment trouble.
class LoadError : public std::runtime_error {
public:
  LoadError(LoadErrorKind Kind, std::string_view Format,
            const std::string &Detail);
  LoadErrorKind kind() const { return K; }

private:
  LoadErrorKind K;
};

namespace frame {

/// Bytes in a trailer: "crc32 " + 8 hex digits + '\n'.
inline constexpr size_t TrailerSize = 15;

/// \p V as exactly \p Digits lowercase hex digits (zero-padded).
std::string hex(uint64_t V, int Digits);

/// The trailer for \p Covered: "crc32 <hex8>\n".
std::string trailer(std::string_view Covered);

/// True iff \p Text is exactly one canonical trailer; its CRC goes to
/// \p Crc.
bool parseTrailer(std::string_view Text, uint32_t &Crc);

/// The format name a magic names: its text up to the first blank or
/// newline ("swift-ckpt" for "swift-ckpt v2 ").
std::string_view family(std::string_view Magic);

/// Throws the LoadError for \p Bytes that do not start with \p Magic:
/// Truncated for a proper prefix of it (the empty file included),
/// VersionMismatch for another version of the same family, Corrupt
/// otherwise.
[[noreturn]] void rejectMagic(std::string_view Magic, std::string_view Bytes);

/// Frames \p Payload as a whole file: <Magic><len>\n<payload><trailer>.
std::string encode(std::string_view Magic, std::string_view Payload);

/// Validates a whole-file frame and returns its payload (a view into
/// \p Bytes). Throws LoadError.
std::string_view decode(std::string_view Magic, std::string_view Bytes);

/// readWholeFile, with any I/O failure rethrown as LoadError(IoError)
/// under \p Format. \p FailPrefix names the read failpoints.
std::string readFile(std::string_view Format, const std::string &Path,
                     const char *FailPrefix);

/// A field separator within a line: space, tab, CR, VT or FF.
inline bool isBlank(char C) {
  return C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f';
}

/// Splits \p Line at runs of blanks.
std::vector<std::string_view> split(std::string_view Line);

/// Sequential reader over a payload that has already passed its frame
/// check. Line, token and byte-run primitives share one position; every
/// primitive throws LoadError(Corrupt) under the cursor's format on
/// malformed input.
class Cursor {
public:
  Cursor(std::string_view Text, std::string_view Format)
      : Text(Text), Format(Format) {}

  /// The next line, without its '\n'; an unterminated line is an error.
  std::string_view line();

  /// The next line split into fields; it must have exactly \p N fields,
  /// the first being \p Keyword.
  std::vector<std::string_view> fields(std::string_view Keyword, size_t N);

  /// The next \p N raw bytes.
  std::string_view bytes(uint64_t N);

  /// The next whitespace-delimited token, crossing line breaks.
  std::string_view token() {
    skipSpace();
    if (atEnd())
      fail("unexpected end of payload");
    size_t Start = Pos;
    while (Pos < Text.size() && !isBlank(Text[Pos]) && Text[Pos] != '\n')
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Consumes a token that must equal \p Keyword.
  void expect(std::string_view Keyword) {
    std::string_view Got = token();
    if (Got != Keyword)
      failExpected(Keyword, Got);
  }

  /// The next token as a decimal number no greater than \p Max.
  uint64_t number(uint64_t Max = UINT64_MAX) { return dec(token(), Max); }

  /// The next token as the length of the token sequence after it. Each
  /// element takes a blank and at least one byte, so a count past half
  /// the rest of the payload is rejected before anyone reserves for it.
  uint64_t count() { return number((Text.size() - Pos) / 2); }

  /// \p Field as a decimal number no greater than \p Max.
  uint64_t dec(std::string_view Field, uint64_t Max = UINT64_MAX) const {
    uint64_t V = 0;
    if (!cli::parseU64(Field, V, Max))
      failNumber(Field, Max);
    return V;
  }

  /// \p Field as exactly \p Digits lowercase hex digits.
  uint64_t hex(std::string_view Field, size_t Digits) const;

  /// Skips blanks and line breaks.
  void skipSpace() {
    while (Pos < Text.size() && (isBlank(Text[Pos]) || Text[Pos] == '\n'))
      ++Pos;
  }

  bool atEnd() const { return Pos == Text.size(); }

  /// The number of bytes not yet read.
  size_t remaining() const { return Text.size() - Pos; }

  [[noreturn]] void fail(const std::string &Detail) const;

private:
  [[noreturn]] void failExpected(std::string_view Keyword,
                                 std::string_view Got) const;
  [[noreturn]] void failNumber(std::string_view Field, uint64_t Max) const;

  std::string_view Text;
  std::string_view Format;
  size_t Pos = 0;
};

} // namespace frame
} // namespace swift

#endif // SWIFT_SUPPORT_FRAME_H
