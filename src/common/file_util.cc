#include "common/file_util.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>

namespace ltc {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  // Sized from the file: one allocation (a /proc file grows as it is read).
  std::string out;
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0) out.reserve(st.st_size);
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("error reading '" + path + "'");
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  // Create the parent directory (single level) if missing.
  auto slash = path.rfind('/');
  if (slash != std::string::npos) {
    std::string dir = path.substr(0, slash);
    if (!dir.empty()) ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
  }
  return WriteFile(path, content);
}

}  // namespace ltc
