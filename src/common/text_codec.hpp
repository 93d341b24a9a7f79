// Line-record text codec: the primitives shared by the library's two text
// formats, the distributed runner's job frames (flow/job_io.hpp) and the
// artifact store's objects (store/artifact_store.hpp). The records both
// formats carry (a binding, a map summary) have one writer and one reader
// in flow/job_io.hpp; this module owns the primitives beneath them:
//  - whole-token strict number parsers, and hexfloat doubles, which
//    parse_double reads back bit for bit;
//  - %XX escapes, so any string travels as one whitespace-free token;
//  - a line reader whose errors name the source and the line, with a raw
//    mode that hands the store its checksummed payload verbatim;
//  - counted lists ("<n> <v1> ... <vn>"), whose count is checked against
//    the tokens left on the line, so no count can overrun or wrap;
//  - FNV-1a 64, the store's content address and payload checksum.
// Every input is untrusted: a malformed one throws hlp::Error, and no
// reader allocates for a count before the tokens or lines behind it exist.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace hlp {

/// Whole-token strict parsers: the token must be one number in range for
/// the type and nothing else (digits with a leading '-' only on signed
/// types; no '+', no whitespace, no trailing bytes), or hlp::Error quotes
/// it. parse_double takes strtod's syntax (decimal, hexfloat, inf, nan)
/// over the whole token and rejects overflow and underflow.
int parse_int(std::string_view tok);
std::int64_t parse_i64(std::string_view tok);
std::uint64_t parse_u64(std::string_view tok);
double parse_double(std::string_view tok);

/// Hexfloat, which parse_double reads back bit for bit.
std::string fmt_double(double v);

/// Percent-escape (%XX) every byte that would break whitespace-delimited
/// parsing: whitespace, '%', and non-printable bytes. Decode inverts
/// exactly; decode of a malformed escape throws.
std::string encode_token(std::string_view s);
std::string decode_token(std::string_view s);

/// FNV-1a 64. Not cryptographic: the store uses it against crashes and bit
/// rot, not adversaries.
std::uint64_t fnv1a64(std::string_view s);

/// " <n> <fmt(v1)> ... <fmt(vn)>": a counted list as
/// LineRecord::take_counted reads it back.
template <typename T, typename Fmt = std::identity>
void write_counted(std::ostream& os, const std::vector<T>& v, Fmt fmt = {}) {
  os << ' ' << v.size();
  for (const T& x : v) os << ' ' << fmt(x);
}

/// "<head> <n> <v1> ... <vn>\n": a line that is one counted list.
template <typename T, typename Fmt = std::identity>
void write_counted_line(std::ostream& os, std::string_view head,
                        const std::vector<T>& v, Fmt fmt = {}) {
  os << head;
  write_counted(os, v, fmt);
  os << '\n';
}

/// One line of a record format, split on whitespace and read left to
/// right. The first token is the line's head; every error names the
/// source, the line number and the head. A record refers to its reader's
/// source name, so it must not outlive the reader.
class LineRecord {
 public:
  LineRecord(std::vector<std::string> tokens, const std::string& what,
             int lineno);

  const std::string& head() const { return toks_[0]; }
  /// True once every token after the head was taken.
  bool done() const { return at_ == toks_.size(); }
  /// The next token; throws when the line has no more.
  const std::string& take();
  /// `parse(take())`, with a parse error prefixed by the line.
  template <typename Parse>
  auto take(Parse parse) {
    const std::string& tok = take();
    try {
      return parse(tok);
    } catch (const Error& e) {
      fail(e.what());
    }
  }
  /// A counted list: the count, then that many tokens through `parse`. The
  /// count must not exceed the tokens left on the line.
  template <typename Parse>
  auto take_counted(Parse parse) {
    const std::uint64_t n = take(parse_u64);
    const std::size_t left = toks_.size() - at_;
    if (n > left)
      fail("'" + head() + "' line declares " + std::to_string(n) +
           " values, has " + std::to_string(left));
    std::vector<std::decay_t<decltype(parse(toks_[0]))>> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(take(parse));
    return out;
  }
  /// Throws unless every token was taken.
  void finish() const;
  /// "<what> line <n>", the prefix of every error about this line.
  std::string where() const;

 private:
  [[noreturn]] void fail(const std::string& msg) const;

  std::vector<std::string> toks_;
  std::size_t at_ = 1;
  const std::string* what_;
  int lineno_;
};

/// Reads a record format line by line. `what` names the source in every
/// error; line numbers count from the stream's first line plus
/// `lines_before` (a payload parsed apart from the header before it).
class LineReader {
 public:
  /// Whether next() and line() skip blank lines (job frames) or reject
  /// them (store objects, which must be canonical).
  enum class Blank { kSkip, kReject };

  LineReader(std::istream& is, std::string what, Blank blank,
             int lines_before = 0);

  /// The next line verbatim, blank or not. At the end of the input throws
  /// "<what> truncated after line <n>: expected <expected>".
  std::string raw(std::string_view expected);
  /// The next line as a record, or nullopt at the end of the input.
  std::optional<LineRecord> next();
  /// The next line as a record whose head must be `head` (any head when
  /// `head` is empty); the end of the input is a truncation.
  LineRecord line(std::string_view head = {});
  /// A line that is one counted list: "<head> <n> <v1> ... <vn>".
  template <typename Parse>
  auto counted_line(std::string_view head, Parse parse) {
    LineRecord rec = line(head);
    auto out = rec.take_counted(parse);
    rec.finish();
    return out;
  }
  /// True when no line is left; reads (and drops) the next line if there
  /// is one, so call it only to check that the input has ended.
  bool at_end();

  const std::string& what() const { return what_; }

 private:
  [[noreturn]] void truncated(std::string_view expected) const;

  std::istream& is_;
  std::string what_;
  Blank blank_;
  int lineno_;
};

}  // namespace hlp
