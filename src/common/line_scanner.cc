#include "common/line_scanner.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/string_util.h"

namespace ltc {

namespace {

/// A whole field as canonical decimal: no '+', no leading zero, no "-0".
template <typename T>
bool ParseInteger(std::string_view f, T* v) {
  const auto r = std::from_chars(f.data(), f.data() + f.size(), *v);
  const std::size_t sign = !f.empty() && f[0] == '-' ? 1 : 0;
  return r.ec == std::errc() && r.ptr == f.data() + f.size() &&
         (f[sign] != '0' || f.size() == 1);
}

/// A whole field as a finite double. from_chars reads subnormals exactly
/// and refuses '+', spaces, hex, and what overflows or underflows to zero;
/// it parses inf and nan, which are refused here.
bool ParseFinite(std::string_view f, double* v) {
  const auto r = std::from_chars(f.data(), f.data() + f.size(), *v);
  return r.ec == std::errc() && r.ptr == f.data() + f.size() &&
         std::isfinite(*v);
}

}  // namespace

bool ParseDouble(const std::string& s, double* out) {
  return ParseFinite(s, out);
}

bool ParseInt64(const std::string& s, std::int64_t* out) {
  return ParseInteger(std::string_view(s), out);
}

char* FormatReal(double v, char* buf) {
  return std::to_chars(buf, buf + kRealChars, v, std::chars_format::general,
                       17)
      .ptr;
}

void AppendRealField(std::string* out, double v) {
  char buf[kRealChars];
  out->push_back(' ');
  out->append(buf, FormatReal(v, buf));
}

LineScanner::LineScanner(std::string_view text, const char* format)
    : text_(text),
      format_(format),
      lines_left_(std::count(text.begin(), text.end(), '\n') +
                  (text.empty() || text.back() == '\n' ? 0 : 1)) {}

bool LineScanner::NextLine() {
  const std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) return false;
  line_ = text_.substr(pos_, eol - pos_);
  pos_ = eol + 1;
  --lines_left_;
  ++line_number_;
  field_start_ = cursor_ = 0;
  return true;
}

bool LineScanner::NextRecord() {
  while (NextLine()) {
    if (!line_.empty() && line_.back() == '\r') line_.remove_suffix(1);
    if (!line_.empty()) return true;
  }
  return false;
}

Status LineScanner::Header(std::string_view header) {
  if (NextRecord() && line_number_ == 1 && line_ == header) {
    return Status::OK();
  }
  return Status::InvalidArgument(std::string(format_) + ": line 1 must be '" +
                                 std::string(header) + "'");
}

Status LineScanner::Finish() const {
  if (pos_ == text_.size()) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%s: line %zu: truncated final line (no '\\n'): '%s'",
                format_, line_number_ + 1,
                std::string(text_.substr(pos_, 120)).c_str()));
}

Status LineScanner::Field(std::string_view* f) {
  // The first field starts the line; every later one follows one space.
  field_start_ = cursor_ == 0 ? 0 : cursor_ + 1;
  if (field_start_ > line_.size()) {
    field_start_ = line_.size();
    return Error("missing field");
  }
  cursor_ = std::min(line_.find(' ', field_start_), line_.size());
  *f = field();
  return f->empty() ? Error("empty field") : Status::OK();
}

Status LineScanner::Expect(std::string_view words) {
  field_start_ = cursor_ == 0 ? 0 : cursor_ + 1;
  const std::size_t end = field_start_ + words.size();
  if (field_start_ > line_.size() ||
      line_.substr(field_start_, words.size()) != words ||
      (end < line_.size() && line_[end] != ' ')) {
    return Error("expected '" + std::string(words) + "'");
  }
  cursor_ = end;
  return Status::OK();
}

Status LineScanner::ReadInt(std::int64_t* v, std::int64_t lo,
                            std::int64_t hi, StatusCode range_code) {
  std::string_view f;
  LTC_RETURN_IF_ERROR(Field(&f));
  if (!ParseInteger(f, v)) return Error("bad integer field");
  if (*v < lo || *v > hi) {
    return Error(StrFormat("integer outside [%lld, %lld]",
                           static_cast<long long>(lo),
                           static_cast<long long>(hi)),
                 range_code);
  }
  return Status::OK();
}

Status LineScanner::Word(std::uint64_t* v) {
  std::string_view f;
  LTC_RETURN_IF_ERROR(Field(&f));
  return ParseInteger(f, v) ? Status::OK() : Error("bad unsigned field");
}

Status LineScanner::Real(double* v, double lo, double hi) {
  std::string_view f;
  LTC_RETURN_IF_ERROR(Field(&f));
  if (!ParseFinite(f, v)) return Error("bad real field");
  if (*v < lo || *v > hi) {
    return Error(StrFormat("real outside [%.17g, %.17g]", lo, hi));
  }
  return Status::OK();
}

Status LineScanner::EndLine() const {
  return MoreFields() ? Error("extra field") : Status::OK();
}

Status LineScanner::Error(std::string_view what, StatusCode code) const {
  constexpr std::size_t kShown = 120;
  std::string msg = StrFormat("%s: line %zu, column %zu: ", format_,
                              line_number_, field_start_ + 1);
  msg.append(what).append(": '").append(line_.substr(0, kShown));
  return Status(code, msg + (line_.size() > kShown ? "...'" : "'"));
}

}  // namespace ltc
