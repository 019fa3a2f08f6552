//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint (de)serialization for budget-limited typestate runs. A
/// checkpoint bundles everything a resume needs to be self-contained:
/// the analyzed program (embedded verbatim as swift-ir v1 text, reusing
/// the round-trip dumper), the run configuration, and the tabulation
/// snapshot (framework/TabSnapshot.h).
///
/// On disk a checkpoint is "swift-ckpt v2": the v1 text inside the
/// whole-file frame of support/Frame.h (magic "swift-ckpt v2 "), so a
/// load failure is a typed LoadError — Truncated, Corrupt or
/// VersionMismatch, or IoError when the file cannot be read. Bare v1
/// files still load. Saving goes through
/// writeFileAtomic: temp file + fsync + atomic rename, so a crash at any
/// point leaves either the complete old or the complete new checkpoint,
/// never a torn mix — the property tools/swift-crashtest proves under
/// injected kills.
///
/// Name-based where ids could drift, id-based where the dumper guarantees
/// stability: procedures and typestates are referenced by name, abstract
/// states spell their access paths as dotted identifiers re-interned on
/// parse; allocation-site and CFG-node ids are numeric because
/// parseProgramText reproduces them exactly.
///
/// The payload is read line by line with frame::Cursor, the reader the
/// store, spool and journal use, and a state row's access-path sets go
/// through the typestate text codec (typestate/TextCodec.h). Blank
/// lines, '#' comment lines and CRLF line endings are malformed. A parse
/// error names what is wrong but not its line: the cursor tracks no line
/// numbers, and nothing needs them. Besides the grammar, the loader
/// rejects rows the solver would assert on when resumed: an observed
/// state that is not the tracked spec's error state, and a path edge,
/// work row or summary that leads a non-Lambda entry to the Lambda state.
///
/// The resume guarantee (enforced by the checkpoint-resume oracle in
/// src/difftest): for a pure top-down run, save(exhausted run) -> load ->
/// resume with a sufficient budget yields results bit-identical to an
/// uninterrupted run. Hybrid runs drop bottom-up caches at checkpoint
/// (sound; see TabSnapshot.h) and coincide on error sites and main-exit
/// states.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_GOVERN_CHECKPOINT_H
#define SWIFT_GOVERN_CHECKPOINT_H

#include "support/Frame.h"
#include "typestate/Runner.h"

#include <memory>
#include <string>
#include <string_view>

namespace swift {

class Program;

/// One saved budget-exhausted run: configuration + snapshot. TrackedClass
/// names the typestate class the run analyzed (checkpoints are per
/// TsContext).
struct TsCheckpoint {
  SwiftRunConfig Config;
  std::string TrackedClass;
  uint64_t StepsConsumed = 0;
  TsTabSnapshot Snapshot;
};

/// Serializes \p C (a checkpoint of a run over \p Prog) as swift-ckpt v1
/// text. Deterministic: equal checkpoints print equal text.
std::string checkpointToText(const Program &Prog, const TsCheckpoint &C);

/// A parsed checkpoint owns its program (rebuilt from the embedded
/// swift-ir text; the snapshot's ids refer to it).
struct ParsedCheckpoint {
  std::unique_ptr<Program> Prog;
  TsCheckpoint Checkpoint;
};

/// Parses bare swift-ckpt v1 text (the v2 payload). Throws
/// LoadError(Corrupt) on malformed input. Section counts are
/// sanity-checked against the remaining input size, so a mutated count
/// fails fast instead of reserving absurd memory.
ParsedCheckpoint parseCheckpointText(std::string_view Text);

/// Frames v1 payload text as a swift-ckpt v2 file image.
std::string frameCheckpointV2(std::string_view Payload);

/// Parses a checkpoint *file image*: v2 framed (frame validated) or bare
/// legacy v1. Throws LoadError.
ParsedCheckpoint parseCheckpointFile(std::string_view Text);

/// Writes \p C as a v2 file, crash-safely: temp file + fsync + atomic
/// rename with bounded retry (failpoints ckpt.save.*). Throws
/// std::runtime_error with errno detail on persistent failure; an
/// existing checkpoint at \p Path survives any failed or killed save.
void saveCheckpointFile(const std::string &Path, const Program &Prog,
                        const TsCheckpoint &C);

/// Reads and validates a checkpoint file (v2 or legacy v1; failpoints
/// ckpt.load.*). Throws LoadError.
ParsedCheckpoint loadCheckpointFile(const std::string &Path);

} // namespace swift

#endif // SWIFT_GOVERN_CHECKPOINT_H
