// Thin RAII socket layer for the ingest server and client: listen/connect
// over Unix-domain or loopback TCP sockets, with full-buffer write and
// EINTR-safe read helpers. Address strings:
//
//   unix:/path/to.sock   Unix-domain stream socket at that path (the
//                        listener unlinks a stale path before binding)
//   tcp:PORT             IPv4 loopback (127.0.0.1) on PORT
//
// No TLS, no name resolution, no non-loopback TCP: this is the in-machine
// transport of ltc_serve and its tests/benches, not a general network stack.

#ifndef LTC_NET_SOCKET_H_
#define LTC_NET_SOCKET_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace ltc {
namespace net {

/// \brief Move-only owner of a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  void Close();

  /// Writes the whole buffer (loops over partial writes and EINTR).
  Status WriteAll(const char* data, std::size_t len);
  Status WriteAll(const std::string& data) {
    return WriteAll(data.data(), data.size());
  }

  /// Reads up to `len` bytes. Returns 0 at orderly EOF; retries EINTR.
  StatusOr<std::size_t> ReadSome(char* buf, std::size_t len);

 private:
  int fd_ = -1;
};

/// Parses, binds and listens on `address` (see file comment).
StatusOr<Socket> ListenOn(const std::string& address, int backlog = 16);

/// Connects to `address`.
StatusOr<Socket> ConnectTo(const std::string& address);

/// Accepts one connection (blocking).
StatusOr<Socket> Accept(const Socket& listener);

}  // namespace net
}  // namespace ltc

#endif  // LTC_NET_SOCKET_H_
