// The one snapshot codec (DESIGN.md §11). A StateArchive either writes a
// state object's records or reads them back, checking every field against
// the domain declared next to it, so each state object declares its layout
// once, in a `Status Serialize(StateArchive& ar)`:
//
//   LTC_RETURN_IF_ERROR(ar.Record("clock", Real(&last_event_time_)));
//
// Text format: one record per '\n'-terminated line, "key field field ...",
// read by the one text scanner (common/line_scanner.h). Integers are plain
// decimal; doubles are FormatReal's (std::to_chars(..., general, 17), which
// the standard defines as printf's "%.17g" — the fixed precision that
// round-trips every double). On top of the scanner's rules the reader
// accepts exactly what the writer emits (doubles in FormatReal's bytes, no
// blank lines, no '\r', no missing or extra fields, block line counts that
// hold), so any state it accepts serializes back to the same bytes. A
// malformed record, a value outside its domain or a Count beyond the lines
// left is InvalidArgument; an id outside its Index range is OutOfRange.

#ifndef LTC_COMMON_STATE_ARCHIVE_H_
#define LTC_COMMON_STATE_ARCHIVE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/line_scanner.h"
#include "common/status.h"

namespace ltc {

class StateArchive {
 public:
  /// Appends records to *out.
  static StateArchive Writer(std::string* out) { return StateArchive(out); }
  /// Reads and checks `text`, which must outlive the archive.
  static StateArchive Reader(std::string_view text);

  bool writing() const { return out_ != nullptr; }
  bool reading() const { return out_ == nullptr; }

  /// One record: `key` (which may hold a space, e.g. "x rng"), then
  /// `fields` in order. Reading consumes the next line, which must carry
  /// exactly this key and these fields.
  template <typename... F>
  Status Record(std::string_view key, const F&... fields) {
    if (writing()) {
      out_->append(key);
      (fields.Write(*this), ...);
      out_->push_back('\n');
      return Status::OK();
    }
    Status status = BeginLine(key);
    ((status.ok() ? (void)(status = fields.Read(*this)) : (void)0), ...);
    if (status.ok() && MoreFields()) status = Invalid("extra fields");
    return status;
  }

  /// Loop condition of a run of `key` records with no count line: writing,
  /// whether i < n; reading, whether the next line is a `key` record.
  bool Repeats(std::string_view key, std::size_t i, std::size_t n) const;

  /// A nested block: a "<key> <nlines>" line, then the lines `body` writes.
  /// Reading, `body` must consume exactly nlines lines.
  template <typename Body>
  Status Block(std::string_view key, Body&& body);

  /// Reading: errors unless every line was consumed.
  Status End() const {
    return lines_left_ == 0 ? Status::OK()
                            : Invalid("trailing data after the state");
  }

  // Field primitives. TakeInt's range error is OutOfRange when `index`,
  // else InvalidArgument; TakeReal also requires FormatReal's bytes.
  void PutInt(std::int64_t v);
  void PutWord(std::uint64_t v);
  void PutReal(double v);
  template <typename T>
  Status TakeInt(T* v, std::int64_t lo, std::int64_t hi, bool index) {
    return scan_.Int(v, lo, hi,
                     index ? StatusCode::kOutOfRange
                           : StatusCode::kInvalidArgument);
  }
  Status TakeWord(std::uint64_t* v) { return scan_.Word(v); }
  Status TakeReal(double* v, double lo, double hi);
  bool MoreFields() const { return scan_.MoreFields(); }
  std::int64_t lines_left() const { return lines_left_; }
  Status Invalid(const char* what) const { return scan_.Error(what); }

 private:
  explicit StateArchive(std::string* out)
      : out_(out), scan_({}, "snapshot") {}

  Status BeginLine(std::string_view key);

  std::string* out_ = nullptr;  // writer only
  // Reader: the text and the lines left in the current scope (the text or
  // the open block).
  LineScanner scan_;
  std::int64_t lines_left_ = 0;
};

// --- Fields: a variable and its domain ---

/// An integer in [lo, hi], clamped to what T holds. A count's hi is the
/// lines left.
template <typename T>
struct IntField {
  T* v;
  std::int64_t lo;
  std::int64_t hi;
  bool index;
  bool count;

  void Write(StateArchive& ar) const { ar.PutInt(*v); }
  Status Read(StateArchive& ar) const {
    return ar.TakeInt(v, lo, count ? ar.lines_left() : hi, index);
  }
};

/// An id in [lo, hi] (OutOfRange outside).
template <typename T>
IntField<T> Index(T* v, std::int64_t lo, std::int64_t hi) {
  return {v, lo, hi, true, false};
}
/// A counter >= 0.
template <typename T>
IntField<T> NonNeg(T* v) {
  return {v, 0, std::numeric_limits<std::int64_t>::max(), false, false};
}
/// A 0/1 flag.
template <typename T>
IntField<T> Bit(T* v) {
  return {v, 0, 1, false, false};
}
/// How many lines follow: at most the lines left, so a forged count cannot
/// force a huge allocation.
inline IntField<std::int64_t> Count(std::int64_t* v) {
  return {v, 0, 0, false, true};
}

/// A finite double in [lo, hi]: any (Real), [0, 1] (Unit) or >= 0.
struct RealField {
  double* v;
  double lo;
  double hi;
  void Write(StateArchive& ar) const { ar.PutReal(*v); }
  Status Read(StateArchive& ar) const { return ar.TakeReal(v, lo, hi); }
};
inline RealField Real(double* v) {
  return {v, -std::numeric_limits<double>::max(),
          std::numeric_limits<double>::max()};
}
inline RealField Unit(double* v) { return {v, 0.0, 1.0}; }
inline RealField NonNeg(double* v) {
  return {v, 0.0, std::numeric_limits<double>::max()};
}

/// An unsigned 64-bit word.
struct Word {
  std::uint64_t* v;
  void Write(StateArchive& ar) const { ar.PutWord(*v); }
  Status Read(StateArchive& ar) const { return ar.TakeWord(v); }
};

/// A record's trailing ids, strictly ascending in [lo, hi]: writing emits
/// (*v)[begin, end), reading appends to *v. A counted list writes its
/// length first.
struct ListField {
  std::vector<std::int32_t>* v;
  std::size_t begin;
  std::size_t end;
  std::int64_t lo;
  std::int64_t hi;
  bool counted;
  void Write(StateArchive& ar) const;
  Status Read(StateArchive& ar) const;
};
inline ListField List(std::vector<std::int32_t>* v, std::size_t begin,
                      std::size_t end, std::int64_t lo, std::int64_t hi) {
  return {v, begin, end, lo, hi, false};
}
inline ListField CountedList(std::vector<std::int32_t>* v, std::int64_t lo,
                             std::int64_t hi) {
  return {v, 0, v->size(), lo, hi, true};
}

template <typename Body>
Status StateArchive::Block(std::string_view key, Body&& body) {
  if (writing()) {
    const std::size_t start = out_->size();
    LTC_RETURN_IF_ERROR(body());
    const auto lines = std::count(out_->begin() + start, out_->end(), '\n');
    out_->insert(start, std::string(key) + " " + std::to_string(lines) + "\n");
    return Status::OK();
  }
  std::int64_t lines = 0;
  LTC_RETURN_IF_ERROR(Record(key, Count(&lines)));
  const std::int64_t after = lines_left_ - lines;  // the enclosing scope's
  lines_left_ = lines;
  LTC_RETURN_IF_ERROR(body());
  if (lines_left_ != 0) {
    return Status::InvalidArgument("snapshot: '" + std::string(key) +
                                   "' block has unread lines");
  }
  lines_left_ = after;
  return Status::OK();
}

}  // namespace ltc

#endif  // LTC_COMMON_STATE_ARCHIVE_H_
