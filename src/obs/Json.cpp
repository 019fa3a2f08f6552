//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent JSON parser and compact serializer (see Json.h for
/// the supported subset).
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace swift {
namespace obs {
namespace json {

namespace {

constexpr int MaxDepth = 64;

class Parser {
public:
  explicit Parser(std::string_view Text) : T(Text) {}

  Value run() {
    Value V = parseValue(0);
    skipWs();
    if (Pos != T.size())
      fail("trailing garbage after JSON value");
    return V;
  }

private:
  [[noreturn]] void fail(const std::string &Msg) {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(Pos) + ": " + Msg);
  }

  void skipWs() {
    while (Pos < T.size() && (T[Pos] == ' ' || T[Pos] == '\t' ||
                              T[Pos] == '\n' || T[Pos] == '\r'))
      ++Pos;
  }

  char peek() {
    if (Pos >= T.size())
      fail("unexpected end of input");
    return T[Pos];
  }

  void expect(char C) {
    if (peek() != C)
      fail(std::string("expected '") + C + "'");
    ++Pos;
  }

  bool consumeLiteral(std::string_view Lit) {
    if (T.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  Value parseValue(int Depth) {
    if (Depth > MaxDepth)
      fail("nesting too deep");
    skipWs();
    char C = peek();
    Value V;
    switch (C) {
    case '{': {
      ++Pos;
      V.K = Value::Kind::Object;
      skipWs();
      if (peek() == '}') {
        ++Pos;
        return V;
      }
      for (;;) {
        skipWs();
        std::string Key = parseString();
        skipWs();
        expect(':');
        V.Obj.emplace_back(std::move(Key), parseValue(Depth + 1));
        skipWs();
        char D = peek();
        ++Pos;
        if (D == '}')
          return V;
        if (D != ',')
          fail("expected ',' or '}' in object");
      }
    }
    case '[': {
      ++Pos;
      V.K = Value::Kind::Array;
      skipWs();
      if (peek() == ']') {
        ++Pos;
        return V;
      }
      for (;;) {
        V.Arr.push_back(parseValue(Depth + 1));
        skipWs();
        char D = peek();
        ++Pos;
        if (D == ']')
          return V;
        if (D != ',')
          fail("expected ',' or ']' in array");
      }
    }
    case '"':
      V.K = Value::Kind::String;
      V.Str = parseString();
      return V;
    case 't':
      if (!consumeLiteral("true"))
        fail("bad literal");
      V.K = Value::Kind::Bool;
      V.B = true;
      return V;
    case 'f':
      if (!consumeLiteral("false"))
        fail("bad literal");
      V.K = Value::Kind::Bool;
      V.B = false;
      return V;
    case 'n':
      if (!consumeLiteral("null"))
        fail("bad literal");
      return V;
    default:
      return parseNumber();
    }
  }

  std::string parseString() {
    expect('"');
    std::string Out;
    for (;;) {
      if (Pos >= T.size())
        fail("unterminated string");
      char C = T[Pos++];
      if (C == '"')
        return Out;
      if (static_cast<unsigned char>(C) < 0x20)
        fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= T.size())
        fail("unterminated escape");
      char E = T[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > T.size())
          fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = T[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode (BMP only; a lone surrogate encodes as-is, which
        // round-trips our own output — we never emit surrogates).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        fail("unknown escape");
      }
    }
  }

  Value parseNumber() {
    size_t Start = Pos;
    if (Pos < T.size() && T[Pos] == '-')
      ++Pos;
    bool PureInt = Pos < T.size();
    while (Pos < T.size() &&
           (std::isdigit(static_cast<unsigned char>(T[Pos])) ||
            T[Pos] == '.' || T[Pos] == 'e' || T[Pos] == 'E' ||
            T[Pos] == '+' || T[Pos] == '-')) {
      if (!std::isdigit(static_cast<unsigned char>(T[Pos])))
        PureInt = false;
      ++Pos;
    }
    if (Pos == Start)
      fail("expected a value");
    std::string Num(T.substr(Start, Pos - Start));
    char *End = nullptr;
    // A pure-integer lexeme in u64/i64 range keeps the exact value:
    // doubles round above 2^53, and trace/bench ids and step counters
    // are full-width u64s. Out-of-range integers fall back to double.
    if (PureInt) {
      errno = 0;
      if (Num[0] == '-') {
        long long S = std::strtoll(Num.c_str(), &End, 10);
        if (errno == 0 && End == Num.c_str() + Num.size())
          return Value::i64(S);
      } else {
        unsigned long long Us = std::strtoull(Num.c_str(), &End, 10);
        if (errno == 0 && End == Num.c_str() + Num.size())
          return Value::u64(Us);
      }
    }
    double D = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      fail("malformed number '" + Num + "'");
    return Value::number(D);
  }

  std::string_view T;
  size_t Pos = 0;
};

void dumpString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void dumpInto(std::string &Out, const Value &V) {
  switch (V.K) {
  case Value::Kind::Null:
    Out += "null";
    return;
  case Value::Kind::Bool:
    Out += V.B ? "true" : "false";
    return;
  case Value::Kind::Number: {
    char Buf[40];
    double I;
    if (V.NR == Value::NumRep::U64)
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(V.U));
    else if (V.NR == Value::NumRep::I64)
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(V.I));
    else if (std::modf(V.Num, &I) == 0.0 && std::abs(V.Num) < 1e15)
      std::snprintf(Buf, sizeof(Buf), "%.0f", V.Num);
    else
      std::snprintf(Buf, sizeof(Buf), "%.17g", V.Num);
    Out += Buf;
    return;
  }
  case Value::Kind::String:
    dumpString(Out, V.Str);
    return;
  case Value::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Value &E : V.Arr) {
      if (!First)
        Out += ',';
      First = false;
      dumpInto(Out, E);
    }
    Out += ']';
    return;
  }
  case Value::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[K, E] : V.Obj) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(Out, K);
      Out += ':';
      dumpInto(Out, E);
    }
    Out += '}';
    return;
  }
  }
}

} // namespace

const Value *Value::find(std::string_view Key) const {
  for (const auto &[K, V] : Obj)
    if (K == Key)
      return &V;
  return nullptr;
}

Value Value::u64(uint64_t V) {
  Value R;
  R.K = Kind::Number;
  R.NR = NumRep::U64;
  R.U = V;
  R.Num = static_cast<double>(V);
  return R;
}

Value Value::i64(int64_t V) {
  if (V >= 0)
    return u64(static_cast<uint64_t>(V));
  Value R;
  R.K = Kind::Number;
  R.NR = NumRep::I64;
  R.I = V;
  R.Num = static_cast<double>(V);
  return R;
}

Value Value::number(double D) {
  Value R;
  R.K = Kind::Number;
  R.Num = D;
  return R;
}

Value Value::str(std::string S) {
  Value R;
  R.K = Kind::String;
  R.Str = std::move(S);
  return R;
}

Value Value::boolean(bool V) {
  Value R;
  R.K = Kind::Bool;
  R.B = V;
  return R;
}

uint64_t Value::asU64() const {
  if (K != Kind::Number)
    return 0;
  if (NR == NumRep::U64)
    return U;
  if (NR == NumRep::I64)
    return 0; // I64 representation is negative by construction.
  if (!(Num >= 0)) // Negatives and NaN.
    return 0;
  // 2^64 is exact as a double; casting it or anything above is undefined.
  if (Num >= 18446744073709551616.0)
    return UINT64_MAX;
  return static_cast<uint64_t>(Num);
}

Value parse(std::string_view Text) { return Parser(Text).run(); }

std::string dump(const Value &V) {
  std::string Out;
  dumpInto(Out, V);
  return Out;
}

} // namespace json
} // namespace obs
} // namespace swift
