#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"

namespace ltc {
namespace net {

namespace {

constexpr char kUnixPrefix[] = "unix:";
constexpr char kTcpPrefix[] = "tcp:";

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  // unix
  int port = 0;      // tcp
};

StatusOr<ParsedAddress> ParseAddress(const std::string& address) {
  ParsedAddress parsed;
  if (StartsWith(address, kUnixPrefix)) {
    parsed.is_unix = true;
    parsed.path = address.substr(sizeof(kUnixPrefix) - 1);
    if (parsed.path.empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + address +
                                     "'");
    }
    sockaddr_un probe;
    if (parsed.path.size() >= sizeof(probe.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     parsed.path);
    }
    return parsed;
  }
  if (StartsWith(address, kTcpPrefix)) {
    std::int64_t port = -1;
    if (!ParseInt64(address.substr(sizeof(kTcpPrefix) - 1), &port) ||
        port < 0 || port > 65535) {
      return Status::InvalidArgument("bad tcp port in '" + address + "'");
    }
    parsed.port = static_cast<int>(port);
    return parsed;
  }
  return Status::InvalidArgument(
      "address must be unix:/path or tcp:PORT, got '" + address + "'");
}

void FillUnixAddr(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size());
}

void FillTcpAddr(int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::WriteAll(const char* data, std::size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("write on closed socket");
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd_, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("socket write");
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::size_t> Socket::ReadSome(char* buf, std::size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("read on closed socket");
  while (true) {
    const ssize_t n = ::read(fd_, buf, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("socket read");
    }
    return static_cast<std::size_t>(n);
  }
}

StatusOr<Socket> ListenOn(const std::string& address, int backlog) {
  LTC_ASSIGN_OR_RETURN(const ParsedAddress parsed, ParseAddress(address));
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
    Socket sock(fd);
    ::unlink(parsed.path.c_str());  // a stale path from a crashed server
    sockaddr_un addr;
    FillUnixAddr(parsed.path, &addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return ErrnoStatus("bind " + parsed.path);
    }
    if (::listen(fd, backlog) != 0) return ErrnoStatus("listen");
    return sock;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket(AF_INET)");
  Socket sock(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  FillTcpAddr(parsed.port, &addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus(StrFormat("bind tcp:%d", parsed.port));
  }
  if (::listen(fd, backlog) != 0) return ErrnoStatus("listen");
  return sock;
}

StatusOr<Socket> ConnectTo(const std::string& address) {
  LTC_ASSIGN_OR_RETURN(const ParsedAddress parsed, ParseAddress(address));
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
    Socket sock(fd);
    sockaddr_un addr;
    FillUnixAddr(parsed.path, &addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return ErrnoStatus("connect " + parsed.path);
    }
    return sock;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket(AF_INET)");
  Socket sock(fd);
  sockaddr_in addr;
  FillTcpAddr(parsed.port, &addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus(StrFormat("connect tcp:%d", parsed.port));
  }
  return sock;
}

StatusOr<Socket> Accept(const Socket& listener) {
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("accept");
    }
    return Socket(fd);
  }
}

}  // namespace net
}  // namespace ltc
