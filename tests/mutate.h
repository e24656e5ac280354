// Seeded text mutations for the reader tests (no fuzzing engine): each
// mutant makes one edit to a valid file, so every format's reader meets
// broken input it was never written for. Used by the io_test mutation
// table (ltc-events, WAL reopen, ltc-workload, ltc-road,
// the wire events payload) and by the snapshot mutation test.

#ifndef LTC_TESTS_MUTATE_H_
#define LTC_TESTS_MUTATE_H_

#include <cstddef>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace ltc {

/// What a mutant may put in place of a field: non-finite, negative, zero,
/// past every integer range, huge and subnormal.
inline constexpr const char* kExtremeNumbers[] = {
    "nan", "inf", "-1", "0", "9223372036854775808", "1e300",
    "1.0000000000000001e+300", "4.9406564584124654e-324"};

/// The m-th mutant of `text`, a non-empty run of '\n'-terminated lines. By
/// m % 5: one byte flipped, a line dropped, a line duplicated, two fields
/// swapped, or a field replaced by an extreme number; `rng` picks where.
inline std::string Mutate(const std::string& text, int m,
                          std::mt19937_64& rng) {
  std::vector<std::string> mutant = Split(text, '\n');
  mutant.pop_back();  // the empty piece after the final '\n'
  auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng() % size);
  };
  std::string& line = mutant[pick(mutant.size())];
  std::vector<std::string> f = Split(line, ' ');
  switch (m % 5) {
    case 0:  // one byte flipped
      if (!line.empty()) {
        line[pick(line.size())] ^= static_cast<char>(1 + pick(255));
      }
      break;
    case 1:  // a line dropped
      mutant.erase(mutant.begin() +
                   static_cast<std::ptrdiff_t>(pick(mutant.size())));
      break;
    case 2: {  // a line duplicated
      const std::size_t at = pick(mutant.size());
      mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                    mutant[at]);
      break;
    }
    case 3:  // two fields swapped
      if (f.size() > 2) {
        std::swap(f[1 + pick(f.size() - 1)], f[1 + pick(f.size() - 1)]);
        line = Join(f, " ");
      }
      break;
    default:  // a number replaced by an extreme
      if (f.size() > 1) {
        f[1 + pick(f.size() - 1)] =
            kExtremeNumbers[pick(std::size(kExtremeNumbers))];
        line = Join(f, " ");
      }
      break;
  }
  return Join(mutant, "\n") + "\n";
}

}  // namespace ltc

#endif  // LTC_TESTS_MUTATE_H_
