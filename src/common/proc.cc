#include "common/proc.h"

#include <cstdio>
#include <cstring>

namespace ltc {

namespace {
std::uint64_t ReadStatusField(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      unsigned long long v = 0;
      // ltc-lint: allow(number-parse) /proc pads fields with tabs, spaces
      if (std::sscanf(line + field_len, ": %llu kB", &v) == 1) kib = v;
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}
}  // namespace

std::uint64_t PeakRssBytes() { return ReadStatusField("VmHWM"); }

std::uint64_t CurrentRssBytes() { return ReadStatusField("VmRSS"); }

}  // namespace ltc
