// Whole-file helpers: the text readers and writers (ReadFile, WriteFile)
// and the CSV/JSON emitters (WriteTextFile).

#ifndef LTC_COMMON_FILE_UTIL_H_
#define LTC_COMMON_FILE_UTIL_H_

#include <string>

#include "common/status.h"

namespace ltc {

/// Reads an entire file into a string. IOError when it cannot be opened or
/// read.
StatusOr<std::string> ReadFile(const std::string& path);

/// Writes `content` to `path` (overwrites). IOError on open or short-write
/// failures.
Status WriteFile(const std::string& path, const std::string& content);

/// WriteFile, creating the (single-level) parent directory if missing.
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace ltc

#endif  // LTC_COMMON_FILE_UTIL_H_
