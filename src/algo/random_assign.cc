#include "algo/random_assign.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace ltc {
namespace algo {

namespace {

/// Full-string unsigned 64-bit parse (ParseInt64 would reject the upper
/// half of the xoshiro word range). Decimal digits only: strtoull alone
/// would also take a sign ("-1" wraps to 2^64 - 1) or leading spaces.
bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || !std::all_of(s.begin(), s.end(), [](char c) {
        return c >= '0' && c <= '9';
      })) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace

void RandomAssign::SelectTasks(const model::Worker& worker,
                               const std::vector<model::TaskId>& candidates,
                               std::vector<model::TaskId>* out) {
  (void)worker;
  const auto k = static_cast<std::size_t>(capacity());
  if (candidates.size() <= k) {
    out->insert(out->end(), candidates.begin(), candidates.end());
    return;
  }
  // Partial Fisher-Yates: draw K distinct tasks uniformly.
  pool_ = candidates;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng_.UniformInt(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool_.size()) - 1));
    std::swap(pool_[i], pool_[j]);
    out->push_back(pool_[i]);
  }
}

void RandomAssign::SerializeExtras(std::string* out) const {
  const Rng::State s = rng_.SaveState();
  out->append(StrFormat("x rng %llu %llu %llu %llu %.17g %d\n",
                        static_cast<unsigned long long>(s.s[0]),
                        static_cast<unsigned long long>(s.s[1]),
                        static_cast<unsigned long long>(s.s[2]),
                        static_cast<unsigned long long>(s.s[3]),
                        s.cached_gaussian, s.has_cached_gaussian ? 1 : 0));
}

Status RandomAssign::RestoreExtra(const std::string& payload) {
  const std::vector<std::string> f = Split(payload, ' ');
  Rng::State s{};
  std::int64_t has = 0;
  if (f.size() != 7 || f[0] != "rng" || !ParseU64(f[1], &s.s[0]) ||
      !ParseU64(f[2], &s.s[1]) || !ParseU64(f[3], &s.s[2]) ||
      !ParseU64(f[4], &s.s[3]) || !ParseDouble(f[5], &s.cached_gaussian) ||
      !ParseInt64(f[6], &has) || (has != 0 && has != 1) ||
      !std::isfinite(s.cached_gaussian)) {
    return Status::InvalidArgument("Random: bad rng snapshot line: " +
                                   payload);
  }
  // All-zero is xoshiro's fixed point: the generator would emit 0 forever.
  if ((s.s[0] | s.s[1] | s.s[2] | s.s[3]) == 0) {
    return Status::InvalidArgument("Random: all-zero rng state: " + payload);
  }
  s.has_cached_gaussian = has == 1;
  rng_.RestoreState(s);
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
