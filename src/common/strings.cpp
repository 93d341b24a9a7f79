#include "common/strings.hpp"

#include <cctype>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/text_codec.hpp"

namespace hlp {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split_on(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string fmt_fixed(double v, int decimals) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(decimals);
  oss << v;
  return oss.str();
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (!env || *env == '\0') return fallback;
  int v = 0;
  try {
    v = parse_int(env);
  } catch (const Error& e) {
    HLP_REQUIRE(false, name << "='" << env << "': " << e.what());
  }
  HLP_REQUIRE(v >= 1,
              name << "='" << env << "' out of range [1, " << INT_MAX << "]");
  return v;
}

}  // namespace hlp
