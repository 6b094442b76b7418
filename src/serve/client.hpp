#pragma once

/// \file client.hpp
/// Minimal blocking client for the serving protocol — one request line
/// out, one status line (plus any announced payload) back. Used by the
/// `ssp_client` tool and the serve test suite; scripted clients stay in
/// lockstep because every request yields exactly one status line and
/// `n=<k>` announces payload sizes.

#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace ssp::serve {

/// Status line + payload of one request.
struct ClientResponse {
  std::string status;
  std::vector<std::string> payload;

  [[nodiscard]] bool ok() const { return is_ok(status); }
};

class ServeClient {
 public:
  /// Connects to a unix-domain socket. Throws std::runtime_error.
  [[nodiscard]] static ServeClient connect_unix(const std::string& path);

  /// Connects to 127.0.0.1:<port>. Throws std::runtime_error.
  [[nodiscard]] static ServeClient connect_tcp(int port);

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  /// Sends one request line (newline appended) and reads the status line
  /// plus the payload it announces. Throws std::runtime_error when the
  /// server hangs up mid-response.
  ClientResponse request(const std::string& line);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void close();

 private:
  explicit ServeClient(int fd) : fd_(fd) {}
  [[nodiscard]] std::string read_line();

  int fd_ = -1;
  LineFramer framer_;
  std::vector<std::string> buffered_;  ///< complete lines not yet consumed
};

}  // namespace ssp::serve
