// Small string helpers used across the library (formatting, splitting,
// human-readable units). Kept dependency-free.

#ifndef LTC_COMMON_STRING_UTIL_H_
#define LTC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ltc {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` on the character `sep`; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(const std::string& s, const std::string& suffix);

/// "12.3 KiB", "4.0 MiB", ... (binary units).
std::string HumanBytes(std::uint64_t bytes);

/// "1.23 s", "45.6 ms", "789 us" — picks a readable unit.
std::string HumanDuration(double seconds);

/// Fixed-precision double ("%.*f").
std::string DoubleToString(double v, int precision = 6);

/// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
/// newlines) — shared by the exp and svc JSON emitters.
std::string JsonEscape(const std::string& s);

/// The whole of `s` as one field of common/line_scanner.h, which defines
/// them: a finite double (every one "%.17g" writes, subnormals included),
/// or canonical decimal (no '+', leading zero or "-0").
bool ParseDouble(const std::string& s, double* out);
bool ParseInt64(const std::string& s, std::int64_t* out);

}  // namespace ltc

#endif  // LTC_COMMON_STRING_UTIL_H_
