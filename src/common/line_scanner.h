// The one reader of every persisted text format (DESIGN.md §11): the event
// log and the WAL, workload and arrangement files, ltc-road, the wire
// events payload, the snapshot framing and StateArchive. Lines end in '\n';
// fields are separated by exactly one space. An integer is decimal with no
// '+', leading zero or "-0", in a declared range; a real is from_chars'
// general syntax and finite (no '+', hex, inf or nan; subnormals kept).
// Errors are InvalidArgument and name the format, the line and the column.
// The text formats read with NextRecord, which also skips blank lines and
// drops a '\r' before the '\n'.

#ifndef LTC_COMMON_LINE_SCANNER_H_
#define LTC_COMMON_LINE_SCANNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace ltc {

/// Room FormatReal needs at `buf`.
inline constexpr std::size_t kRealChars = 32;

/// The one persisted double format: general, 17 significant digits (the
/// bytes of printf's "%.17g"). Writes at most kRealChars chars at `buf`;
/// returns the end.
char* FormatReal(double v, char* buf);

/// Appends a real field to a line: a space, then FormatReal's bytes.
void AppendRealField(std::string* out, double v);

class LineScanner {
 public:
  /// Scans `text`, which must outlive the scanner; `format` names it in
  /// errors.
  LineScanner(std::string_view text, const char* format);

  /// Moves to the next line. False at the end of the text and before an
  /// unterminated last line, which Finish reports.
  bool NextLine();
  /// NextLine past blank lines, with a '\r' before the '\n' dropped.
  bool NextRecord();
  /// Reads line 1, which must be `header`.
  Status Header(std::string_view header);
  /// OK unless the text ends in a line with no '\n': a cut file.
  Status Finish() const;

  std::string_view line() const { return line_; }
  /// The text after the current line.
  std::string_view rest() const { return text_.substr(pos_); }
  /// Lines after the current one: a bound for a declared record count.
  std::int64_t lines_left() const { return lines_left_; }
  bool MoreFields() const { return cursor_ < line_.size(); }
  /// The field read last.
  std::string_view field() const {
    return line_.substr(field_start_, cursor_ - field_start_);
  }

  /// The next field, non-empty.
  Status Field(std::string_view* f);
  /// The next fields must be `words` (which may hold a space, "x rng").
  Status Expect(std::string_view words);
  /// An integer field in [lo, hi] clamped to what T holds, so a value T
  /// cannot hold is refused, never narrowed. Out of range is `range_code`.
  template <typename T>
  Status Int(T* v, std::int64_t lo = std::numeric_limits<T>::min(),
             std::int64_t hi = std::numeric_limits<T>::max(),
             StatusCode range_code = StatusCode::kInvalidArgument);
  /// An unsigned 64-bit field.
  Status Word(std::uint64_t* v);
  /// A real field in [lo, hi].
  Status Real(double* v, double lo = -std::numeric_limits<double>::max(),
              double hi = std::numeric_limits<double>::max());
  /// Errors unless every field of the line was read.
  Status EndLine() const;
  /// "<format>: line L, column C: <what>: '<line>'".
  Status Error(std::string_view what,
               StatusCode code = StatusCode::kInvalidArgument) const;

 private:
  Status ReadInt(std::int64_t* v, std::int64_t lo, std::int64_t hi,
                 StatusCode range_code);

  std::string_view text_;
  const char* format_;
  std::size_t pos_ = 0;  // start of the next line
  std::int64_t lines_left_ = 0;
  std::size_t line_number_ = 0;
  std::string_view line_;
  std::size_t field_start_ = 0;
  std::size_t cursor_ = 0;  // end of the last field read (0: none yet)
};

template <typename T>
Status LineScanner::Int(T* v, std::int64_t lo, std::int64_t hi,
                        StatusCode range_code) {
  static_assert(std::is_signed_v<T> || sizeof(T) < sizeof(std::int64_t));
  std::int64_t x = 0;
  LTC_RETURN_IF_ERROR(ReadInt(
      &x, std::max<std::int64_t>(lo, std::numeric_limits<T>::min()),
      std::min<std::int64_t>(hi, std::numeric_limits<T>::max()), range_code));
  *v = static_cast<T>(x);
  return Status::OK();
}

}  // namespace ltc

#endif  // LTC_COMMON_LINE_SCANNER_H_
