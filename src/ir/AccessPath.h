//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Access paths of the form v, v.f, or v.f.g (at most two fields), the
/// alias-set elements of the "full" typestate analysis evaluated in the
/// paper (Section 6.1: "it allows tracking access path expressions formed
/// using variables and fields (upto two)").
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_IR_ACCESSPATH_H
#define SWIFT_IR_ACCESSPATH_H

#include "support/Symbol.h"

#include <cassert>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace swift {

/// An access path: a base variable followed by zero, one, or two fields.
class AccessPath {
public:
  AccessPath() = default;

  explicit AccessPath(Symbol Base) : BaseVar(Base) {}
  AccessPath(Symbol Base, Symbol F1) : BaseVar(Base), Field1(F1) {}
  AccessPath(Symbol Base, Symbol F1, Symbol F2)
      : BaseVar(Base), Field1(F1), Field2(F2) {
    assert((!F2.isValid() || F1.isValid()) && "gap in access path fields");
  }

  bool isValid() const { return BaseVar.isValid(); }
  Symbol base() const { return BaseVar; }
  Symbol field1() const { return Field1; }
  Symbol field2() const { return Field2; }

  /// Number of field dereferences (0, 1, or 2).
  unsigned length() const {
    return (Field1.isValid() ? 1u : 0u) + (Field2.isValid() ? 1u : 0u);
  }

  bool isVar() const { return !Field1.isValid(); }

  /// True if any component of the path dereferences \p F.
  bool usesField(Symbol F) const { return Field1 == F || Field2 == F; }

  /// Returns this path with its base variable replaced by \p NewBase.
  AccessPath withBase(Symbol NewBase) const {
    AccessPath P = *this;
    P.BaseVar = NewBase;
    return P;
  }

  /// Returns the path extended by field \p F; only valid if length() < 2.
  AccessPath extend(Symbol F) const {
    assert(length() < 2 && "access paths track at most two fields");
    if (!Field1.isValid())
      return AccessPath(BaseVar, F);
    return AccessPath(BaseVar, Field1, F);
  }

  std::string str(const SymbolTable &Syms) const {
    std::string S = Syms.text(BaseVar);
    if (Field1.isValid())
      S += "." + Syms.text(Field1);
    if (Field2.isValid())
      S += "." + Syms.text(Field2);
    return S;
  }

  /// Parses the dotted form str() prints ("v", "v.f" or "v.f.g"),
  /// interning each name into \p Syms. nullopt for an empty name or more
  /// than two fields; nothing is interned then.
  static std::optional<AccessPath> parse(std::string_view Text,
                                         SymbolTable &Syms) {
    std::string_view Parts[3];
    size_t N = 0;
    for (;;) {
      size_t Dot = Text.find('.');
      if (N == 3 || Text.empty() || Dot == 0)
        return std::nullopt;
      Parts[N++] = Text.substr(0, Dot);
      if (Dot == std::string_view::npos)
        break;
      Text.remove_prefix(Dot + 1);
    }
    AccessPath P(Syms.intern(Parts[0]));
    for (size_t I = 1; I != N; ++I)
      P = P.extend(Syms.intern(Parts[I]));
    return P;
  }

  friend bool operator==(const AccessPath &A, const AccessPath &B) {
    return A.BaseVar == B.BaseVar && A.Field1 == B.Field1 &&
           A.Field2 == B.Field2;
  }
  friend bool operator!=(const AccessPath &A, const AccessPath &B) {
    return !(A == B);
  }
  friend bool operator<(const AccessPath &A, const AccessPath &B) {
    if (A.BaseVar != B.BaseVar)
      return A.BaseVar < B.BaseVar;
    if (A.Field1 != B.Field1)
      return A.Field1 < B.Field1;
    return A.Field2 < B.Field2;
  }

private:
  Symbol BaseVar;
  Symbol Field1;
  Symbol Field2;
};

} // namespace swift

namespace std {
template <> struct hash<swift::AccessPath> {
  size_t operator()(const swift::AccessPath &P) const noexcept {
    size_t H = 0xcbf29ce484222325ULL;
    auto Mix = [&H](uint32_t V) {
      H ^= V;
      H *= 0x100000001b3ULL;
    };
    Mix(P.base().id());
    Mix(P.field1().id());
    Mix(P.field2().id());
    return H;
  }
};
} // namespace std

#endif // SWIFT_IR_ACCESSPATH_H
