//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-durable edit journal behind swift-serve: an append-only
/// write-ahead log of accepted procedure-replacement edits. The summary
/// store (Store.h) is a *snapshot* — everything accepted after the last
/// explicit save used to be lost on a crash. The journal closes that
/// window: every accepted edit is framed, appended, and fsync'd *before*
/// the engine commits it (and thus before the client ever sees the
/// success response), so a warm start that loads the store and replays
/// the journal tail reconstructs exactly the accepted-edit prefix the
/// daemon had acknowledged.
///
/// File layout: the magic line "swift-serve-journal v1", then records
/// "edit <namelen> <bodylen>\n<name><body>" each followed by the
/// support/Frame.h trailer, whose CRC covers the header line, the name
/// and the body — so a reader can stop at the first record whose frame
/// does not validate. A torn or corrupt *trailing* record is exactly what
/// a kill mid-append leaves behind; replay truncates it off and keeps
/// everything before it (truncate-don't-fail). A file whose magic line is
/// wrong is a different animal — nothing in it can be trusted — and
/// raises a typed LoadError instead.
///
/// Appends go through chunked write + fsync with failpoints
/// journal.append.open / .write (per chunk) / .flush / .close, which is
/// how the crash harness kills the daemon mid-append at a chosen byte
/// position. reset() — the compaction step after the store snapshot has
/// been atomically replaced — rewrites the fresh magic header through
/// writeFileAtomic (failpoint prefix "journal.compact"), so the journal
/// survivor of a mid-compaction crash is either the complete old log or
/// the fresh empty one, never a torn mix.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SERVE_JOURNAL_H
#define SWIFT_SERVE_JOURNAL_H

#include "support/Frame.h"

#include <string>
#include <string_view>
#include <vector>

namespace swift {
namespace serve {

/// The append-only write-ahead log. One instance owns one path; the
/// engine holds it for the life of the session.
class Journal {
public:
  /// First line of every journal file, including the newline.
  static constexpr std::string_view Magic = "swift-serve-journal v1\n";

  /// One logged edit: the same (procedure, whole-block body) pair
  /// ServeEngine::applyEdit accepts.
  struct Record {
    std::string ProcName;
    std::string Body;
  };

  explicit Journal(std::string Path) : Path(std::move(Path)) {}

  const std::string &path() const { return Path; }

  /// The exact bytes append() writes for \p R (header line + name + body
  /// + CRC trailer). Exposed so harnesses can predict journal contents
  /// byte for byte.
  static std::string encodeRecord(const Record &R);

  /// Frames \p R, appends it to the file (creating it with the magic
  /// line if absent), and fsyncs before returning — the record is
  /// durable when this returns. Throws IoError on any I/O failure;
  /// nothing before the new record is disturbed either way. Failpoints:
  /// journal.append.open / .write (per 256-byte chunk) / .flush /
  /// .close.
  void append(const Record &R);

  /// Loads the journal and returns every complete, CRC-valid record in
  /// order. A missing file is an empty journal. A torn or corrupt
  /// trailing record — the signature of a kill mid-append — is cut off
  /// the file (::truncate to the last valid record boundary) and the
  /// records before it are returned; corruption that is *not* confined
  /// to the tail cannot happen under append-only writes, so any invalid
  /// frame ends the scan the same way. A wrong magic line or a failed
  /// read throws LoadError; a failed truncate throws IoError. Failpoints:
  /// journal.replay.open / .read (via readWholeFile) and
  /// journal.replay.truncate.
  std::vector<Record> replayAndRepair() const;

  /// Resets the log to the fresh magic header, atomically (the
  /// compaction step: call after the store snapshot has been saved).
  /// Failpoint prefix "journal.compact" (open/write/flush/close/rename).
  void reset() const;

private:
  std::string Path;
};

} // namespace serve
} // namespace swift

#endif // SWIFT_SERVE_JOURNAL_H
