//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal JSON value model + recursive-descent parser, just enough to
/// round-trip the trace and metrics files this repo emits (obs_test's
/// parse-validation, the swift-tracecat merger, swift-benchdiff, and the
/// swift-serve request protocol). Not a general-purpose JSON library: no
/// \uXXXX surrogate pairs beyond the BMP; object key order is preserved.
/// Numbers whose lexeme is a pure integer in u64/i64 range keep the exact
/// integer through parse -> dump (u64 step counters and ids above 2^53
/// would otherwise silently round to the nearest double), everything else
/// is a double.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_OBS_JSON_H
#define SWIFT_OBS_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swift {
namespace obs {
namespace json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// How a Number is stored exactly. Dbl is the general case; U64/I64
  /// mark integers held exactly in U/I (Num then carries the rounded
  /// double approximation for arithmetic consumers).
  enum class NumRep : uint8_t { Dbl, U64, I64 };

  Kind K = Kind::Null;
  NumRep NR = NumRep::Dbl;
  bool B = false;
  double Num = 0.0;
  uint64_t U = 0; ///< Exact value when NR == NumRep::U64.
  int64_t I = 0;  ///< Exact value when NR == NumRep::I64 (negative).
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj; ///< Insertion order.

  /// An exact unsigned-integer Number (round-trips any uint64_t).
  static Value u64(uint64_t V);
  /// An exact signed-integer Number.
  static Value i64(int64_t V);
  /// A general (double) Number.
  static Value number(double D);
  static Value str(std::string S);
  static Value boolean(bool V);

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// First member with \p Key, or nullptr.
  const Value *find(std::string_view Key) const;

  /// The number as uint64_t: exact for integer-represented values (the
  /// parser preserves pure-integer lexemes up to UINT64_MAX), otherwise
  /// Num truncated (0 for non-numbers, negatives and NaN; UINT64_MAX from
  /// 2^64 up).
  uint64_t asU64() const;
};

/// Parses \p Text (must be a single JSON value plus optional trailing
/// whitespace). Throws std::runtime_error with a byte offset on
/// malformed input; nesting is depth-limited.
Value parse(std::string_view Text);

/// Serializes \p V (compact, no insignificant whitespace). Integral
/// numbers print without a decimal point.
std::string dump(const Value &V);

} // namespace json
} // namespace obs
} // namespace swift

#endif // SWIFT_OBS_JSON_H
