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
#include "common/string_util.h"
#include "io/workload_io.h"

namespace ltc {
namespace svc {

namespace snap {

Reader::Reader(const std::string& text) : lines_(Split(text, '\n')) {}

Status Reader::Read(const char* key, std::size_t min_fields,
                    std::vector<std::string>* fields) {
  while (pos_ < lines_.size()) {
    const std::string line = Trim(lines_[pos_]);
    ++pos_;
    if (line.empty()) continue;
    *fields = Split(line, ' ');
    if ((*fields)[0] != key) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: expected '%s' record, got: %s", key, line.c_str()));
    }
    if (fields->size() < min_fields) {
      return Status::InvalidArgument(
          StrFormat("snapshot: '%s' record too short: %s", key, line.c_str()));
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("snapshot: unexpected end of input (wanted '%s')", key));
}

Status Reader::ReadCount(const char* key, std::int64_t* count) {
  std::vector<std::string> fields;
  LTC_RETURN_IF_ERROR(Read(key, 2, &fields));
  LTC_RETURN_IF_ERROR(FieldI64(fields, 1, count));
  if (*count < 0) {
    return Status::InvalidArgument(
        StrFormat("snapshot: negative '%s' count", key));
  }
  return Status::OK();
}

std::size_t Reader::ReserveHint(std::int64_t count) const {
  return std::min(static_cast<std::size_t>(count), lines_.size() - pos_);
}

Status Reader::ReadRaw(std::string* line) {
  if (pos_ >= lines_.size()) {
    return Status::InvalidArgument("snapshot: unexpected end of input");
  }
  *line = Trim(lines_[pos_]);
  ++pos_;
  return Status::OK();
}

bool Reader::AtEnd() const {
  for (std::size_t i = pos_; i < lines_.size(); ++i) {
    if (!Trim(lines_[i]).empty()) return false;
  }
  return true;
}

Status FieldI64(const std::vector<std::string>& fields, std::size_t i,
                std::int64_t* out) {
  if (i >= fields.size() || !ParseInt64(fields[i], out)) {
    return Status::InvalidArgument(
        StrFormat("snapshot: bad integer field %zu in '%s' record", i,
                  fields.empty() ? "?" : fields[0].c_str()));
  }
  return Status::OK();
}

Status FieldDouble(const std::vector<std::string>& fields, std::size_t i,
                   double* out) {
  if (i >= fields.size() || !ParseDouble(fields[i], out)) {
    return Status::InvalidArgument(
        StrFormat("snapshot: bad double field %zu in '%s' record", i,
                  fields.empty() ? "?" : fields[0].c_str()));
  }
  return Status::OK();
}

}  // namespace snap

namespace {

constexpr char kSnapshotHeader[] = "# ltc-snapshot v1";

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

    // The trailer is the final "crc32 <hex>\n" line; the checksum covers
    // every byte before it.
    const char kTrailerTag[] = "crc32 ";
    const std::size_t trailer = body.rfind(kTrailerTag);
    if (trailer == std::string::npos || body.back() != '\n') {
      ++loaded.discarded;  // torn: trailer missing or cut
      continue;
    }
    const std::string crc_text =
        Trim(body.substr(trailer + sizeof(kTrailerTag) - 1));
    char* end = nullptr;
    const unsigned long crc_expect = std::strtoul(crc_text.c_str(), &end, 16);
    if (end == crc_text.c_str() || *end != '\0' ||
        Crc32(body.data(), trailer) != static_cast<std::uint32_t>(crc_expect)) {
      ++loaded.discarded;  // corrupt: checksum mismatch
      continue;
    }

    snap::Reader reader(body.substr(0, trailer));
    std::string header_line;
    if (!reader.ReadRaw(&header_line).ok() || header_line != kSnapshotHeader) {
      ++loaded.discarded;
      continue;
    }
    std::vector<std::string> fields;
    std::int64_t events_applied = 0;
    if (!reader.Read("events_applied", 2, &fields).ok() ||
        !snap::FieldI64(fields, 1, &events_applied).ok() ||
        events_applied < 0) {
      ++loaded.discarded;
      continue;
    }

    // Payload = everything between the events_applied line and the trailer.
    const std::string marker =
        StrFormat("events_applied %lld\n",
                  static_cast<long long>(events_applied));
    const std::size_t payload_start = body.find(marker);
    if (payload_start == std::string::npos) {
      ++loaded.discarded;
      continue;
    }
    loaded.found = true;
    loaded.events_applied = events_applied;
    loaded.engine_state = body.substr(payload_start + marker.size(),
                                      trailer - payload_start - marker.size());
    return loaded;
  }
  return loaded;
}

}  // namespace svc
}  // namespace ltc
