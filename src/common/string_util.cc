#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace ltc {

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer; a second only when the output is longer.
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    out.assign(buf, static_cast<size_t>(n));
  } else if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::memcmp(s.data(), prefix.data(), prefix.size()) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         std::memcmp(s.data() + s.size() - suffix.size(), suffix.data(),
                     suffix.size()) == 0;
}

std::string HumanBytes(std::uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StrFormat("%.1f %s", v, kUnits[unit]);
}

std::string HumanDuration(double seconds) {
  if (seconds >= 1.0) return StrFormat("%.2f s", seconds);
  if (seconds >= 1e-3) return StrFormat("%.2f ms", seconds * 1e3);
  if (seconds >= 1e-6) return StrFormat("%.2f us", seconds * 1e6);
  return StrFormat("%.0f ns", seconds * 1e9);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace ltc
