#include "common/text_codec.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <ios>
#include <sstream>

#include "common/strings.hpp"

namespace hlp {

namespace {

// The parsers throw plain messages: callers prefix the line or flag the
// token came from.
template <typename T>
T parse_integer(std::string_view tok, const char* kind) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [stop, ec] = std::from_chars(tok.data(), end, v);
  if (ec == std::errc::result_out_of_range)
    throw Error(std::string(kind) + " '" + std::string(tok) +
                "' out of range");
  if (ec != std::errc() || stop != end)
    throw Error("bad " + std::string(kind) + " '" + std::string(tok) + "'");
  return v;
}

bool needs_escape(unsigned char c) {
  return c == '%' || std::isspace(c) || !std::isprint(c);
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

int parse_int(std::string_view tok) {
  return parse_integer<int>(tok, "integer");
}

std::int64_t parse_i64(std::string_view tok) {
  return parse_integer<std::int64_t>(tok, "integer");
}

std::uint64_t parse_u64(std::string_view tok) {
  return parse_integer<std::uint64_t>(tok, "unsigned");
}

// strtod, because operator>> cannot parse hexfloat portably.
double parse_double(std::string_view tok) {
  const std::string s(tok);  // strtod needs the terminator
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE)
    throw Error("bad double '" + s + "'");
  return v;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::string encode_token(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (needs_escape(u)) {
      out += '%';
      out += hex[u >> 4];
      out += hex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string decode_token(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size() || hex_digit(s[i + 1]) < 0 || hex_digit(s[i + 2]) < 0)
      throw Error("malformed %-escape in '" + std::string(s) + "'");
    out += static_cast<char>(hex_digit(s[i + 1]) * 16 + hex_digit(s[i + 2]));
    i += 2;
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- LineRecord ----------------------------------------------------------

LineRecord::LineRecord(std::vector<std::string> tokens, const std::string& what,
                       int lineno)
    : toks_(std::move(tokens)), what_(&what), lineno_(lineno) {}

const std::string& LineRecord::take() {
  if (done()) fail("'" + head() + "' line ends early");
  return toks_[at_++];
}

void LineRecord::finish() const {
  if (!done())
    fail("'" + head() + "' line has " + std::to_string(toks_.size() - 1) +
         " fields, expected " + std::to_string(at_ - 1));
}

std::string LineRecord::where() const {
  return *what_ + " line " + std::to_string(lineno_);
}

void LineRecord::fail(const std::string& msg) const {
  throw Error(where() + ": " + msg);
}

// ---- LineReader ----------------------------------------------------------

namespace {

std::string expected_line(std::string_view head) {
  return head.empty() ? std::string("a line")
                      : "'" + std::string(head) + "' line";
}

}  // namespace

LineReader::LineReader(std::istream& is, std::string what, Blank blank,
                       int lines_before)
    : is_(is), what_(std::move(what)), blank_(blank), lineno_(lines_before) {}

std::string LineReader::raw(std::string_view expected) {
  std::string text;
  if (!std::getline(is_, text)) truncated(expected);
  ++lineno_;
  return text;
}

std::optional<LineRecord> LineReader::next() {
  std::string text;
  while (std::getline(is_, text)) {
    ++lineno_;
    std::vector<std::string> toks = split_ws(text);
    if (!toks.empty()) return LineRecord(std::move(toks), what_, lineno_);
    if (blank_ == Blank::kReject)
      throw Error(what_ + " line " + std::to_string(lineno_) +
                  ": blank line");
  }
  return std::nullopt;
}

LineRecord LineReader::line(std::string_view head) {
  std::optional<LineRecord> rec = next();
  if (!rec) truncated(expected_line(head));
  if (!head.empty() && rec->head() != head)
    throw Error(rec->where() + ": expected " + expected_line(head) +
                ", got '" + rec->head() + "'");
  return std::move(*rec);
}

bool LineReader::at_end() {
  std::string text;
  return !std::getline(is_, text);
}

void LineReader::truncated(std::string_view expected) const {
  throw Error(what_ + " truncated after line " + std::to_string(lineno_) +
              ": expected " + std::string(expected));
}

}  // namespace hlp
