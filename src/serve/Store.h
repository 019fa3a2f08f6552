//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warm-start summary store behind swift-serve: a crash-safe on-disk
/// snapshot of the incremental engine's per-procedure state (body hash,
/// oracle fingerprint, recorded summary->callee dependency edges, and the
/// full relational summary). This module owns only the store-file
/// grammar; each summary is written as the typestate text codec's summary
/// text (typestate/TextCodec.h), which spells every symbol by name, so a
/// store loads into the program it embeds.
///
/// A store file is "swift-serve-store v1": the whole-file frame of
/// support/Frame.h around the payload, written through writeFileAtomic
/// with failpoint prefix "serve.save", so the crashtest kill campaign
/// covers the store the same way it covers checkpoints: the survivor of a
/// mid-save crash is always a complete, CRC-valid old or new snapshot.
/// Every decode failure — frame, payload, or summary text — is a typed
/// LoadError.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SERVE_STORE_H
#define SWIFT_SERVE_STORE_H

#include "support/Frame.h"
#include "typestate/TextCodec.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace swift {
namespace serve {

/// One procedure's persisted incremental state.
struct StoredProc {
  std::string Name;
  uint64_t BodyHash = 0;
  uint64_t OracleFp = 0;
  bool HasSummary = false;
  /// Names of callees whose summaries this procedure's summary read
  /// (recorded by the solver's dep recorder); meaningful iff HasSummary.
  std::vector<std::string> Deps;
  TsSummary Sum; ///< Meaningful iff HasSummary.
};

/// A decoded store: the program it was saved against plus per-proc state
/// (summaries already interned into *Prog's symbol table).
struct ParsedStore {
  std::unique_ptr<Program> Prog;
  std::string TrackedClass;
  std::vector<StoredProc> Procs;
};

/// Serializes a full store (program text embedded verbatim) and frames
/// it.
std::string encodeStore(const Program &Prog, const std::string &TrackedClass,
                        const std::vector<StoredProc> &Procs);

/// Validates the frame and decodes everything. Throws LoadError.
ParsedStore decodeStore(std::string_view Bytes);

/// encodeStore + writeFileAtomic (failpoint prefix "serve.save").
void saveStoreFile(const std::string &Path, const Program &Prog,
                   const std::string &TrackedClass,
                   const std::vector<StoredProc> &Procs);

/// readWholeFile + decodeStore. Throws LoadError.
ParsedStore loadStoreFile(const std::string &Path);

} // namespace serve
} // namespace swift

#endif // SWIFT_SERVE_STORE_H
