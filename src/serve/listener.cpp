#include "serve/listener.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "obs/export_prom.hpp"
#include "obs/log.hpp"

namespace gsx::serve {

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

LineListener::LineListener(Config cfg, Handler handler)
    : cfg_(std::move(cfg)), handler_(std::move(handler)) {}

LineListener::~LineListener() { shutdown(); }

std::uint16_t LineListener::listen() {
  GSX_REQUIRE(listen_fd_ < 0, "LineListener::listen: already listening");
  std::uint16_t bound_port = 0;
  if (!cfg_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    GSX_REQUIRE(listen_fd_ >= 0, "socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    GSX_REQUIRE(cfg_.unix_path.size() < sizeof(addr.sun_path),
                "unix socket path too long");
    std::strncpy(addr.sun_path, cfg_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(cfg_.unix_path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw InvalidArgument("bind(" + cfg_.unix_path + ") failed: " +
                            std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    GSX_REQUIRE(listen_fd_ >= 0, "socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // serving is local-only
    addr.sin_port = htons(cfg_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw InvalidArgument(std::string("bind(127.0.0.1) failed: ") +
                            std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port = ntohs(bound.sin_port);
  }
  GSX_REQUIRE(::listen(listen_fd_, 64) == 0, "listen() failed");
  running_.store(true, std::memory_order_release);
  if (cfg_.metrics_port >= 0) start_metrics_listener();
  obs::log_info(cfg_.log_tag.c_str(), "listening",
                {obs::lf("endpoint", cfg_.unix_path.empty()
                                         ? "127.0.0.1:" + std::to_string(bound_port)
                                         : cfg_.unix_path)});
  return bound_port;
}

void LineListener::start_metrics_listener() {
  metrics_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  GSX_REQUIRE(metrics_fd_ >= 0, "socket(AF_INET) for metrics failed");
  const int one = 1;
  ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.metrics_port));
  if (::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(metrics_fd_, 16) != 0) {
    const int saved = errno;
    ::close(metrics_fd_);
    metrics_fd_ = -1;
    throw InvalidArgument(std::string("metrics bind(127.0.0.1:") +
                          std::to_string(cfg_.metrics_port) +
                          ") failed: " + std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  metrics_port_ = ntohs(bound.sin_port);
  metrics_thread_ = std::thread([this] { metrics_loop(); });
  obs::log_info(cfg_.log_tag.c_str(), "metrics scrape endpoint listening",
                {obs::lf("endpoint", "127.0.0.1:" + std::to_string(metrics_port_))});
}

void LineListener::metrics_loop() {
  // Deliberately minimal HTTP/1.0: one request per connection, close after
  // the response. A Prometheus scraper needs nothing more, and anything more
  // would drag a web server into the serving daemon.
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // metrics fd closed by shutdown(), or fatal error
    }
    char buf[2048];
    std::string request;
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < std::size_t{16} * 1024) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
    }
    const bool get_root = request.rfind("GET / ", 0) == 0;
    const bool get_metrics = request.rfind("GET /metrics", 0) == 0;
    std::string response;
    if (get_root || get_metrics) {
      const std::string body = cfg_.metrics_renderer
                                   ? cfg_.metrics_renderer()
                                   : obs::render_prometheus();
      response = "HTTP/1.0 200 OK\r\nContent-Type: " +
                 std::string(obs::kPrometheusContentType) +
                 "\r\nContent-Length: " + std::to_string(body.size()) +
                 "\r\nConnection: close\r\n\r\n" + body;
    } else {
      response =
          "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    }
    write_all(fd, response.data(), response.size());
    ::close(fd);
  }
}

void LineListener::serve_forever() {
  // shutdown() sets stopping_ before it closes the listen fd, so a closed
  // fd seen together with stopping_ means a shutdown that ran before this
  // loop started: nothing is left to serve.
  const int lfd = listen_fd_.load();
  if (lfd < 0 && stopping_.load(std::memory_order_acquire)) return;
  GSX_REQUIRE(lfd >= 0, "LineListener::serve_forever: call listen() first");
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd closed by shutdown(), or fatal error
    }
    std::lock_guard lk(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    reap_finished_locked();
    conn_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
  running_.store(false, std::memory_order_release);
}

void LineListener::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while (open && (nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string response = handler_(line);
      response.push_back('\n');
      open = write_all(fd, response.data(), response.size());
    }
  }
  {
    std::lock_guard lk(conn_mu_);
    conn_fds_.erase(fd);
    finished_ids_.insert(std::this_thread::get_id());
  }
  ::close(fd);
}

void LineListener::reap_finished_locked() {
  // Bounded housekeeping: connection threads mark themselves finished on the
  // way out, so joining here never blocks on a live connection (the marked
  // thread has nothing left to run but close() + return).
  if (finished_ids_.empty()) return;
  auto it = conn_threads_.begin();
  while (it != conn_threads_.end()) {
    const std::thread::id id = it->get_id();
    if (finished_ids_.count(id) != 0) {
      it->join();
      finished_ids_.erase(id);
      it = conn_threads_.erase(it);
    } else {
      ++it;
    }
  }
}

void LineListener::shutdown() {
  std::lock_guard shutdown_lk(shutdown_mu_);
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept()
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_fd_ >= 0) {
    ::shutdown(metrics_fd_, SHUT_RDWR);  // wakes the metrics accept()
    ::close(metrics_fd_);
    metrics_fd_ = -1;
  }
  if (metrics_thread_.joinable()) metrics_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard lk(conn_mu_);
    // SHUT_RD (not RDWR): wakes connection threads blocked in read() while
    // keeping the write side alive, so a thread mid-predict still delivers
    // its response — a drain never drops an in-flight request.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    threads.swap(conn_threads_);
    finished_ids_.clear();
  }
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
  running_.store(false, std::memory_order_release);
}

// --- WireClient --------------------------------------------------------------

WireClient::~WireClient() { close(); }

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

bool WireClient::dial_tcp(const std::string& host, std::uint16_t port) {
  close();
  (void)host;  // the fleet is loopback-only; host names the peer in logs
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  return true;
}

void WireClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool WireClient::request(const std::string& line, std::string* response) {
  if (fd_ < 0) return false;
  std::string out = line;
  out.push_back('\n');
  if (!write_all(fd_, out.data(), out.size())) {
    close();
    return false;
  }
  char chunk[4096];
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      response->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace gsx::serve
