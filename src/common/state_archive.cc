#include "common/state_archive.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace ltc {

namespace {

/// Parses a non-empty field as a decimal integer written the way the
/// writer writes it: no '+', no leading zeros, no "-0".
template <typename T>
bool ParseInteger(std::string_view f, T* v) {
  const auto r = std::from_chars(f.data(), f.data() + f.size(), *v);
  const std::size_t sign = f[0] == '-' ? 1 : 0;  // a digit follows on success
  return r.ec == std::errc() && r.ptr == f.data() + f.size() &&
         (f[sign] != '0' || f.size() == 1);
}

template <typename T>
void PutInteger(std::string* out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out->push_back(' ');
  out->append(buf, r.ptr);
}

}  // namespace

char* FormatReal(double v, char* buf) {
  const auto r =
      std::to_chars(buf, buf + kRealChars, v, std::chars_format::general, 17);
  return r.ptr;
}

StateArchive StateArchive::Reader(std::string_view text) {
  StateArchive ar(nullptr);
  ar.text_ = text;
  ar.lines_left_ = std::count(text.begin(), text.end(), '\n');
  // An unterminated last line still counts, so reading it reports the
  // missing newline rather than the end of input.
  if (!text.empty() && text.back() != '\n') ++ar.lines_left_;
  return ar;
}

bool StateArchive::Repeats(std::string_view key, std::size_t i,
                           std::size_t n) const {
  if (writing()) return i < n;
  const std::string_view next = text_.substr(pos_);
  return lines_left_ > 0 && next.size() > key.size() &&
         next.substr(0, key.size()) == key &&
         (next[key.size()] == ' ' || next[key.size()] == '\n');
}

Status StateArchive::BeginLine(std::string_view key) {
  key_ = key;
  if (lines_left_ == 0) {
    return Status::InvalidArgument(
        "snapshot: unexpected end of input (wanted '" + std::string(key) +
        "')");
  }
  const std::size_t eol = text_.find('\n', pos_);
  line_ = text_.substr(pos_, eol == std::string_view::npos ? eol : eol - pos_);
  if (eol == std::string_view::npos) return Invalid("unterminated line");
  pos_ = eol + 1;
  --lines_left_;
  if (line_.substr(0, key.size()) != key ||
      (line_.size() > key.size() && line_[key.size()] != ' ')) {
    return Invalid("unexpected record");
  }
  cursor_ = key.size();
  return Status::OK();
}

Status StateArchive::NextField(std::string_view* field) {
  if (!MoreFields()) return Invalid("missing field");
  const std::size_t start = cursor_ + 1;  // past the separating space
  cursor_ = std::min(line_.find(' ', start), line_.size());
  *field = line_.substr(start, cursor_ - start);
  return field->empty() ? Invalid("empty field") : Status::OK();
}

Status StateArchive::Error(bool out_of_range, const char* what) const {
  constexpr std::size_t kShown = 120;
  std::string msg = std::string("snapshot: ") + what + " in '" +
                    std::string(key_) + "' record: " +
                    std::string(line_.substr(0, kShown));
  if (line_.size() > kShown) msg += "...";
  return out_of_range ? Status::OutOfRange(msg) : Status::InvalidArgument(msg);
}

void StateArchive::PutInt(std::int64_t v) { PutInteger(out_, v); }

void StateArchive::PutWord(std::uint64_t v) { PutInteger(out_, v); }

void StateArchive::PutReal(double v) {
  char buf[32];
  out_->push_back(' ');
  out_->append(buf, FormatReal(v, buf));
}

Status StateArchive::TakeInt(std::int64_t* v, std::int64_t lo,
                             std::int64_t hi, bool index) {
  std::string_view f;
  LTC_RETURN_IF_ERROR(NextField(&f));
  if (!ParseInteger(f, v)) return Invalid("bad integer field");
  if (*v < lo || *v > hi) return Error(index, "field out of range");
  return Status::OK();
}

Status StateArchive::TakeWord(std::uint64_t* v) {
  std::string_view f;
  LTC_RETURN_IF_ERROR(NextField(&f));
  return ParseInteger(f, v) ? Status::OK() : Invalid("bad unsigned field");
}

Status StateArchive::TakeReal(double* v, double lo, double hi) {
  std::string_view f;
  LTC_RETURN_IF_ERROR(NextField(&f));
  const auto r = std::from_chars(f.data(), f.data() + f.size(), *v);
  // Canonical: exactly the bytes PutReal writes for the value read.
  char buf[32];
  const char* end = FormatReal(*v, buf);
  if (r.ec != std::errc() || r.ptr != f.data() + f.size() ||
      std::string_view(buf, static_cast<std::size_t>(end - buf)) != f) {
    return Invalid("bad double field");
  }
  if (!std::isfinite(*v) || *v < lo || *v > hi) {
    return Invalid("double field outside its domain");
  }
  return Status::OK();
}

void ListField::Write(StateArchive& ar) const {
  if (counted) ar.PutInt(static_cast<std::int64_t>(end - begin));
  for (std::size_t k = begin; k < end; ++k) ar.PutInt((*v)[k]);
}

Status ListField::Read(StateArchive& ar) const {
  std::int64_t n = 0;
  if (counted) {
    LTC_RETURN_IF_ERROR(
        ar.TakeInt(&n, 0, std::numeric_limits<std::int64_t>::max(), false));
  }
  std::int64_t read = 0;
  for (std::int64_t next = lo; ar.MoreFields(); ++read) {
    std::int64_t id = 0;
    LTC_RETURN_IF_ERROR(ar.TakeInt(&id, next, hi, /*index=*/true));
    v->push_back(static_cast<std::int32_t>(id));
    next = id + 1;
  }
  if (counted && read != n) return ar.Invalid("list length mismatch");
  return Status::OK();
}

}  // namespace ltc
