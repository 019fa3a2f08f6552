//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recorded digest files under tests/corpus/: one line per program,
/// "<name> <fields...>", keyed by its first word; lines starting with '#'
/// are comments. A digest test computes a program's line afresh and
/// expects the recorded one. On a mismatch the failure prints the fresh
/// line after "record: ". To re-record after a deliberate change of an
/// analysis's results, empty the file (keeping its comment header), run
/// the tests that read it, and keep the lines their failures print after
/// "record: ".
///
/// SWIFT_CORPUS_DIR is injected by tests/CMakeLists.txt.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_TESTS_RECORDEDDIGESTS_H
#define SWIFT_TESTS_RECORDEDDIGESTS_H

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

namespace swift {
namespace digests {

/// The recorded lines of tests/corpus/\p File, keyed by name; each file
/// is read once.
inline const std::map<std::string, std::string> &
recordedLines(const std::string &File) {
  static std::map<std::string, std::map<std::string, std::string>> Files;
  auto [It, Fresh] = Files.try_emplace(File);
  if (Fresh) {
    std::ifstream IS(SWIFT_CORPUS_DIR "/" + File);
    std::string Line;
    while (std::getline(IS, Line))
      if (!Line.empty() && Line[0] != '#')
        It->second[Line.substr(0, Line.find(' '))] = Line;
  }
  return It->second;
}

/// Expects \p Actual to be the line recorded in \p File under its first
/// word. \p What names the digest in the failure message.
inline void expectRecorded(const std::string &File, const std::string &Actual,
                           const std::string &What) {
  const std::map<std::string, std::string> &Lines = recordedLines(File);
  auto It = Lines.find(Actual.substr(0, Actual.find(' ')));
  if (It == Lines.end() || It->second != Actual)
    ADD_FAILURE() << What << " differs from the recorded one\n"
                  << "recorded: "
                  << (It == Lines.end() ? "(none)" : It->second)
                  << "\nrecord: " << Actual;
}

} // namespace digests
} // namespace swift

#endif // SWIFT_TESTS_RECORDEDDIGESTS_H
