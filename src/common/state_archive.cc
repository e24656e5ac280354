#include "common/state_archive.h"

namespace ltc {

StateArchive StateArchive::Reader(std::string_view text) {
  StateArchive ar(nullptr);
  ar.scan_ = LineScanner(text, "snapshot");
  // An unterminated last line still counts, so reading it reports the
  // missing newline rather than the end of input.
  ar.lines_left_ = ar.scan_.lines_left();
  return ar;
}

bool StateArchive::Repeats(std::string_view key, std::size_t i,
                           std::size_t n) const {
  if (writing()) return i < n;
  const std::string_view next = scan_.rest();
  return lines_left_ > 0 && next.size() > key.size() &&
         next.substr(0, key.size()) == key &&
         (next[key.size()] == ' ' || next[key.size()] == '\n');
}

Status StateArchive::BeginLine(std::string_view key) {
  if (lines_left_ == 0) {
    return Status::InvalidArgument(
        "snapshot: unexpected end of input (wanted '" + std::string(key) +
        "')");
  }
  if (!scan_.NextLine()) return scan_.Finish();
  --lines_left_;
  return scan_.Expect(key);
}

void StateArchive::PutInt(std::int64_t v) { *out_ += ' ' + std::to_string(v); }

void StateArchive::PutWord(std::uint64_t v) {
  *out_ += ' ' + std::to_string(v);
}

void StateArchive::PutReal(double v) { AppendRealField(out_, v); }

Status StateArchive::TakeReal(double* v, double lo, double hi) {
  LTC_RETURN_IF_ERROR(scan_.Real(v, lo, hi));
  // Canonical: exactly the bytes PutReal writes for the value read.
  char buf[kRealChars];
  const char* end = FormatReal(*v, buf);
  if (std::string_view(buf, static_cast<std::size_t>(end - buf)) !=
      scan_.field()) {
    return Invalid("non-canonical double field");
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
