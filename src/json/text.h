// Shared lexical helpers for the two JSON parsers (the DOM in json.h and the
// in-situ Document in document.h).
//
// Both speak exactly the same dialect — RFC 8259 with the full \u escape
// set including surrogate pairs beyond the BMP — because they share these
// routines: the string-run scanner, the escape decoder, the strict number
// grammar, the hex/UTF-8 codecs, the surrogate-pair combination rules, and
// the number -> int64 conversion. A behavior change here changes both
// parsers at once, which is what the conformance suite (tests/json) pins.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace swapserve::json {

// Nesting bound shared by every parser: deeper documents are rejected, not
// recursed into (stack safety under fuzzing).
inline constexpr int kMaxParseDepth = 256;

inline int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

inline bool IsHighSurrogate(unsigned code) {
  return code >= 0xD800 && code <= 0xDBFF;
}
inline bool IsLowSurrogate(unsigned code) {
  return code >= 0xDC00 && code <= 0xDFFF;
}

// Combine a UTF-16 surrogate pair into the supplementary-plane scalar.
inline unsigned CombineSurrogates(unsigned high, unsigned low) {
  return 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
}

// Append the UTF-8 encoding of `code` (any Unicode scalar value, including
// the supplementary planes) through the Sink: either a std::string or a
// char* write cursor (in-situ decoding always shrinks, so writing in place
// is safe).
inline void AppendUtf8(unsigned code, std::string& out) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

inline char* AppendUtf8(unsigned code, char* out) {
  if (code < 0x80) {
    *out++ = static_cast<char>(code);
  } else if (code < 0x800) {
    *out++ = static_cast<char>(0xC0 | (code >> 6));
    *out++ = static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    *out++ = static_cast<char>(0xE0 | (code >> 12));
    *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (code & 0x3F));
  } else {
    *out++ = static_cast<char>(0xF0 | (code >> 18));
    *out++ = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (code & 0x3F));
  }
  return out;
}

// JSON's four insignificant whitespace bytes. Every byte above ' ' fails
// the first comparison, so the common no-whitespace case costs one branch.
inline bool IsJsonWhitespace(char c) {
  return static_cast<unsigned char>(c) <= ' ' &&
         (c == ' ' || c == '\t' || c == '\n' || c == '\r');
}

// Does `c` end a clean run inside a string? The closing quote, an escape,
// and a raw control byte (< 0x20, which the dialect rejects) all do; every
// other byte, 0x7F and 0x80-0xFF included, is copied through as-is.
inline bool IsStringStop(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// The first position in [p, end) whose byte IsStringStop, or `end`. With
// SSE2 it tests 16 bytes per step (unaligned loads that never read past
// `end`) and finishes the tail byte by byte; without SSE2 it is the scalar
// loop alone. The cursor lives in a local so it stays in a register.
inline const char* ScanStringRun(const char* p, const char* end) {
#if defined(__SSE2__)
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i backslash = _mm_set1_epi8('\\');
  const __m128i max_control = _mm_set1_epi8(0x1F);
  const __m128i zero = _mm_setzero_si128();
  while (end - p >= 16) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    // Unsigned b <= 0x1F exactly when the saturating b - 0x1F is zero
    // (SSE2 has no unsigned byte compare; a signed one would stop at 0x80+).
    const __m128i control =
        _mm_cmpeq_epi8(_mm_subs_epu8(chunk, max_control), zero);
    const __m128i stop = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(chunk, quote),
                     _mm_cmpeq_epi8(chunk, backslash)),
        control);
    const auto mask = static_cast<unsigned>(_mm_movemask_epi8(stop));
    if (mask != 0) return p + std::countr_zero(mask);
    p += 16;
  }
#endif
  while (p < end && !IsStringStop(*p)) ++p;
  return p;
}

// Decodes one escape sequence for either parser. `p` points just past the
// backslash; `out` is a std::string to append to, or a char* write cursor
// (in-situ decoding writes over the escape it consumed, which is always at
// least as long as its decoded bytes). Returns nullptr on success, with `p`
// past the sequence; on failure returns the error text, with `p` at the
// offset the parsers report it at.
template <typename Out>
inline const char* DecodeEscape(const char*& p, const char* end, Out& out) {
  static_assert(std::is_same_v<Out, std::string> || std::is_same_v<Out, char*>);
  const auto put = [&out](char c) {
    if constexpr (std::is_same_v<Out, std::string>) {
      out += c;
    } else {
      *out++ = c;
    }
  };
  const auto read_hex4 = [&p, end](unsigned& code) {
    if (end - p < 4) return false;
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const int h = HexDigit(*p++);
      if (h < 0) return false;
      code = (code << 4) | static_cast<unsigned>(h);
    }
    return true;
  };
  if (p >= end) return "unterminated escape";
  switch (*p++) {
    case '"': put('"'); return nullptr;
    case '\\': put('\\'); return nullptr;
    case '/': put('/'); return nullptr;
    case 'n': put('\n'); return nullptr;
    case 't': put('\t'); return nullptr;
    case 'r': put('\r'); return nullptr;
    case 'b': put('\b'); return nullptr;
    case 'f': put('\f'); return nullptr;
    case 'u': break;
    default: return "invalid escape character";
  }
  unsigned code = 0;
  if (!read_hex4(code)) return "invalid \\u escape";
  if (IsLowSurrogate(code)) return "lone low surrogate in \\u escape";
  if (IsHighSurrogate(code)) {
    // Supplementary plane: the high surrogate must be followed immediately
    // by \uDC00-\uDFFF; anything else is malformed.
    if (end - p < 2 || p[0] != '\\' || p[1] != 'u') {
      return "unpaired high surrogate in \\u escape";
    }
    p += 2;
    unsigned low = 0;
    if (!read_hex4(low)) return "invalid \\u escape";
    if (!IsLowSurrogate(low)) return "invalid low surrogate in \\u escape";
    code = CombineSurrogates(code, low);
  }
  if constexpr (std::is_same_v<Out, std::string>) {
    AppendUtf8(code, out);
  } else {
    out = AppendUtf8(code, out);
  }
  return nullptr;
}

// Is `c` one of the characters that may appear inside a number token?
// Used to find the token's end; the grammar check below decides validity.
inline bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

// Strict RFC 8259 number grammar:
//   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// Rejects leading zeros ("01"), bare/leading dots (".5", "5."), a lone
// minus, and "+1"/"Infinity"/"NaN" style extensions.
inline bool IsRfc8259Number(std::string_view tok) {
  std::size_t i = 0;
  const std::size_t n = tok.size();
  if (i < n && tok[i] == '-') ++i;
  if (i >= n) return false;
  if (tok[i] == '0') {
    ++i;
  } else if (tok[i] >= '1' && tok[i] <= '9') {
    ++i;
    while (i < n && tok[i] >= '0' && tok[i] <= '9') ++i;
  } else {
    return false;
  }
  if (i < n && tok[i] == '.') {
    ++i;
    if (i >= n || tok[i] < '0' || tok[i] > '9') return false;
    while (i < n && tok[i] >= '0' && tok[i] <= '9') ++i;
  }
  if (i < n && (tok[i] == 'e' || tok[i] == 'E')) {
    ++i;
    if (i < n && (tok[i] == '+' || tok[i] == '-')) ++i;
    if (i >= n || tok[i] < '0' || tok[i] > '9') return false;
    while (i < n && tok[i] >= '0' && tok[i] <= '9') ++i;
  }
  return i == n;
}

// A validated, decoded number token. The integer fast path covers tokens
// that are pure (optionally signed) integers fitting comfortably in 63
// bits — those never touch strtod. Everything else goes through strtod,
// with overflow to +-inf rejected so Dump() output is always valid JSON.
struct NumberToken {
  bool ok = false;
  bool is_int = false;
  std::int64_t i = 0;
  double d = 0.0;
};

inline NumberToken DecodeNumber(std::string_view tok) {
  NumberToken out;
  if (!IsRfc8259Number(tok)) return out;
  // Integer fast path: all digits (after an optional sign), short enough
  // that the value fits in int64 without overflow checks (<= 18 digits).
  const bool neg = !tok.empty() && tok[0] == '-';
  const std::string_view digits = neg ? tok.substr(1) : tok;
  bool pure_int = !digits.empty() && digits.size() <= 18;
  if (pure_int) {
    for (char c : digits) {
      if (c < '0' || c > '9') {
        pure_int = false;
        break;
      }
    }
  }
  if (pure_int) {
    std::int64_t v = 0;
    for (char c : digits) v = v * 10 + (c - '0');
    out.ok = true;
    out.is_int = true;
    out.i = neg ? -v : v;
    out.d = static_cast<double>(out.i);
    return out;
  }
  // strtod needs a NUL-terminated buffer; number tokens are short, so a
  // stack copy avoids allocating.
  char buf[64];
  if (tok.size() >= sizeof(buf)) return out;  // absurdly long: reject
  tok.copy(buf, tok.size());
  buf[tok.size()] = '\0';
  char* end = nullptr;
  const double d = std::strtod(buf, &end);
  if (end != buf + tok.size()) return out;
  if (std::isinf(d)) return out;  // 1e309-style overflow: not representable
  out.ok = true;
  out.d = d;
  return out;
}

// Number -> int64 for the typed accessors. Casting a double outside int64's
// range is undefined behaviour, and these numbers come from outside input
// ("max_tokens": 1e300), so out-of-range values saturate instead. NaN, which
// no parser produces, lands on the minimum rather than reaching the cast.
inline std::int64_t SaturatingInt64(double d) {
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (d >= kTwoTo63) return std::numeric_limits<std::int64_t>::max();
  if (d >= -kTwoTo63) return static_cast<std::int64_t>(d);
  return std::numeric_limits<std::int64_t>::min();
}

// Serialization helpers for Value::Dump (the golden traces compare
// serialized bytes, not parsed values).
inline void AppendJsonEscaped(std::string_view s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Integral doubles below 1e15 print without a decimal point ("3", not
// "3.0"); everything else uses %.17g (round-trippable shortest-ish form).
inline void AppendJsonNumber(double d, std::string& out) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

}  // namespace swapserve::json
