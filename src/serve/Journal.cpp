//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only edit journal (see Journal.h). Appends are chunked like
/// writeFileAtomic's temp-file writes so a kill failpoint can land at
/// many byte positions inside one record — the torn tails those kills
/// produce are exactly what replayAndRepair's truncation contract is
/// tested against.
///
//===----------------------------------------------------------------------===//

#include "serve/Journal.h"

#include "support/AtomicFile.h"
#include "support/CliParse.h"
#include "support/FailPoint.h"
#include "support/Frame.h"
#include "support/Hashing.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace swift;
using namespace swift::serve;

namespace {

/// Small append chunks for the same reason AtomicFile uses 512-byte
/// ones: kill schedules on journal.append.write must reach positions
/// *inside* a record, not just before it.
constexpr size_t AppendChunk = 256;

std::string opError(const char *Op, const std::string &Path, int Err) {
  return std::string(Op) + " '" + Path + "': " + std::strerror(Err);
}

/// Parses "edit <namelen> <bodylen>" (no trailing newline); lengths are
/// capped at \p Max so the record arithmetic cannot overflow. Returns
/// false on any malformation — which replay treats as a torn tail.
bool parseRecordHeader(std::string_view Line, uint64_t Max, uint64_t &NameLen,
                       uint64_t &BodyLen) {
  std::vector<std::string_view> F = frame::split(Line);
  return F.size() == 3 && F[0] == "edit" &&
         cli::parseU64(F[1], NameLen, Max) &&
         cli::parseU64(F[2], BodyLen, Max);
}

} // namespace

std::string Journal::encodeRecord(const Record &R) {
  std::string Out = "edit " + std::to_string(R.ProcName.size()) + " " +
                    std::to_string(R.Body.size()) + "\n" + R.ProcName +
                    R.Body;
  Out += frame::trailer(Out);
  return Out;
}

void Journal::append(const Record &R) {
  if (SWIFT_FAILPOINT("journal.append.open"))
    throw IoError("open", Path,
                  opError("open", Path, EIO) + " (injected)");
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (Fd < 0)
    throw IoError("open", Path, opError("open", Path, errno));
  auto Fail = [&](const char *Op, int E, bool Injected = false) {
    std::string Msg = opError(Op, Path, E) + (Injected ? " (injected)" : "");
    ::close(Fd);
    throw IoError(Op, Path, Msg);
  };

  // A freshly created (empty) file gets the magic line first; the record
  // is appended behind it in the same fd so O_APPEND keeps ordering.
  std::string Bytes;
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    Fail("stat", errno);
  if (St.st_size == 0)
    Bytes.append(Magic);
  Bytes += encodeRecord(R);

  for (size_t Off = 0; Off != Bytes.size();) {
    if (SWIFT_FAILPOINT("journal.append.write"))
      Fail("write", EIO, /*Injected=*/true);
    size_t Want = std::min(AppendChunk, Bytes.size() - Off);
    ssize_t W = ::write(Fd, Bytes.data() + Off, Want);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Fail("write", errno);
    }
    Off += static_cast<size_t>(W);
  }

  // Durability point: the success response must not be sent before the
  // record is on stable storage.
  if (SWIFT_FAILPOINT("journal.append.flush"))
    Fail("fsync", EIO, /*Injected=*/true);
  if (::fsync(Fd) != 0)
    Fail("fsync", errno);
  if (SWIFT_FAILPOINT("journal.append.close"))
    Fail("close", EIO, /*Injected=*/true);
  if (::close(Fd) != 0)
    throw IoError("close", Path, opError("close", Path, errno));
}

std::vector<Journal::Record> Journal::replayAndRepair() const {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0) {
    if (errno == ENOENT)
      return {}; // no journal yet: nothing to replay
    throw IoError("stat", Path, opError("stat", Path, errno));
  }
  std::string Bytes =
      frame::readFile(frame::family(Magic), Path, "journal.replay");
  if (std::string_view(Bytes).substr(0, Magic.size()) != Magic)
    frame::rejectMagic(Magic, Bytes);

  std::vector<Record> Out;
  size_t Pos = Magic.size();
  size_t Good = Pos; // end of the last fully validated record
  std::string_view T(Bytes);
  while (Pos != T.size()) {
    size_t Eol = T.find('\n', Pos);
    uint64_t NameLen = 0, BodyLen = 0;
    if (Eol == std::string_view::npos ||
        !parseRecordHeader(T.substr(Pos, Eol - Pos), T.size(), NameLen,
                           BodyLen))
      break; // header line torn mid-write
    size_t PayloadBegin = Eol + 1;
    size_t TrailerBegin = PayloadBegin + NameLen + BodyLen;
    uint32_t Stored = 0;
    if (TrailerBegin + frame::TrailerSize > T.size() ||
        !frame::parseTrailer(T.substr(TrailerBegin, frame::TrailerSize),
                             Stored) ||
        Stored != crc32(T.data() + Pos, TrailerBegin - Pos))
      break; // torn payload or trailer, or bit rot: stop at the last good
    Record R;
    R.ProcName = std::string(T.substr(PayloadBegin, NameLen));
    R.Body = std::string(T.substr(PayloadBegin + NameLen, BodyLen));
    Out.push_back(std::move(R));
    Pos = Good = TrailerBegin + frame::TrailerSize;
  }

  if (Good != Bytes.size()) {
    // Cut the torn tail so the next append starts at a record boundary —
    // otherwise every future record would be unreachable behind it.
    if (SWIFT_FAILPOINT("journal.replay.truncate"))
      throw IoError("truncate", Path,
                    opError("truncate", Path, EIO) + " (injected)");
    if (::truncate(Path.c_str(), static_cast<off_t>(Good)) != 0)
      throw IoError("truncate", Path, opError("truncate", Path, errno));
  }
  return Out;
}

void Journal::reset() const {
  writeFileAtomic(Path, Magic, "journal.compact");
}
