#include "svc/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>

#include "common/crc32.h"
#include "common/fault_points.h"
#include "common/line_scanner.h"
#include "common/string_util.h"
#include "io/workload_io.h"

namespace ltc {
namespace svc {

namespace {

constexpr char kSnapshotHeader[] = "# ltc-snapshot v4";

std::string SnapshotName(std::int64_t events_applied) {
  return StrFormat("snap-%lld.snap", static_cast<long long>(events_applied));
}

/// Parses "snap-<N>.snap" -> N, or -1 for any other name.
std::int64_t SnapshotEvents(const std::string& name) {
  if (!StartsWith(name, "snap-") || !EndsWith(name, ".snap")) return -1;
  std::int64_t n = -1;
  if (!ParseInt64(name.substr(5, name.size() - 10), &n)) return -1;
  return n;
}

Status FsyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open for fsync " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

StatusOr<SnapshotStore> SnapshotStore::Open(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return Status::InvalidArgument("snapshot dir " + dir +
                                     " exists but is not a directory");
    }
  } else if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  return SnapshotStore(dir);
}

std::vector<std::string> SnapshotStore::List() const {
  std::vector<std::pair<std::int64_t, std::string>> found;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return {};
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    const std::int64_t n = SnapshotEvents(name);
    if (n >= 0) found.emplace_back(n, name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [n, name] : found) names.push_back(name);
  return names;
}

Status SnapshotStore::Write(std::int64_t events_applied,
                            const std::string& engine_state, int retain) {
  if (auto action = FaultPoints::Instance().Hit("snap.write")) {
    return Status::IOError("injected snap.write fault: " + *action);
  }

  std::string body = kSnapshotHeader;
  body += '\n';
  body += StrFormat("events_applied %lld\n",
                    static_cast<long long>(events_applied));
  body += engine_state;
  if (body.back() != '\n') body += '\n';
  body += StrFormat("crc32 %08x\n", Crc32(body));

  const std::string name = SnapshotName(events_applied);
  const std::string final_path = dir_ + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  LTC_RETURN_IF_ERROR(io::WriteFile(tmp_path, body));
  if (auto action = FaultPoints::Instance().Hit("snap.fsync")) {
    ::unlink(tmp_path.c_str());
    return Status::IOError("injected snap.fsync fault: " + *action);
  }
  LTC_RETURN_IF_ERROR(FsyncPath(tmp_path, /*directory=*/false));
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::IOError("rename " + tmp_path + ": " +
                           std::strerror(errno));
  }
  LTC_RETURN_IF_ERROR(FsyncPath(dir_, /*directory=*/true));

  // Retention: keep the newest `retain`, drop the rest. The manifest is
  // rewritten to the post-prune truth (oldest first, newest last).
  std::vector<std::string> names = List();
  if (retain > 0 && static_cast<int>(names.size()) > retain) {
    const std::size_t drop = names.size() - static_cast<std::size_t>(retain);
    for (std::size_t i = 0; i < drop; ++i) {
      ::unlink((dir_ + "/" + names[i]).c_str());
    }
    names.erase(names.begin(),
                names.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  std::string manifest;
  for (const std::string& n : names) manifest += n + "\n";
  LTC_RETURN_IF_ERROR(io::WriteFile(dir_ + "/MANIFEST", manifest));
  return Status::OK();
}

StatusOr<SnapshotStore::Loaded> SnapshotStore::LoadLatest() const {
  Loaded loaded;
  std::vector<std::string> names = List();
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    auto read = io::ReadFile(dir_ + "/" + *it);
    if (!read.ok()) {
      ++loaded.discarded;
      continue;
    }
    const std::string& body = read.value();

    // The trailer is the final line, exactly as Write renders the checksum
    // of every byte before it: a torn or bit-rotted file fails the match.
    const std::size_t trailer = body.rfind("crc32 ");
    if (trailer == std::string::npos ||
        body.compare(trailer, std::string::npos,
                     StrFormat("crc32 %08x\n",
                               Crc32(body.data(), trailer))) != 0) {
      ++loaded.discarded;
      continue;
    }

    // Then the v4 header line and the "events_applied <N>" line; the
    // payload is everything between that line and the trailer.
    LineScanner scan(std::string_view(body).substr(0, trailer),
                     "ltc-snapshot");
    std::int64_t events_applied = -1;
    if (!scan.NextLine() || scan.line() != kSnapshotHeader ||
        !scan.NextLine() || !scan.Expect("events_applied").ok() ||
        !scan.Int(&events_applied, 0).ok() || !scan.EndLine().ok()) {
      ++loaded.discarded;
      continue;
    }
    loaded.found = true;
    loaded.events_applied = events_applied;
    loaded.engine_state = std::string(scan.rest());
    return loaded;
  }
  return loaded;
}

}  // namespace svc
}  // namespace ltc
