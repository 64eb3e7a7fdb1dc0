#include "server/admin_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace p3pdb::server {

namespace {

/// Parses `top=N` out of a query string ("top=5&x=y"); `fallback` when
/// absent or malformed (a value that overflows size_t is malformed).
size_t TopFromQuery(std::string_view query, size_t fallback) {
  while (!query.empty()) {
    size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    if (pair.size() > 4 && pair.substr(0, 4) == "top=") {
      size_t value = 0;
      for (char c : pair.substr(4)) {
        if (c < '0' || c > '9') return fallback;
        const size_t digit = static_cast<size_t>(c - '0');
        if (value > (SIZE_MAX - digit) / 10) return fallback;
        value = value * 10 + digit;
      }
      return value;
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return fallback;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
  }
  return "Internal Server Error";
}

void SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), 0);
    if (n <= 0) return;  // peer went away; nothing useful to do
    data.remove_prefix(static_cast<size_t>(n));
  }
}

}  // namespace

AdminHttpServer::AdminHttpServer(Handlers handlers, Options options)
    : handlers_(std::move(handlers)), options_(std::move(options)) {}

Result<std::unique_ptr<AdminHttpServer>> AdminHttpServer::Start(
    Handlers handlers, Options options) {
  std::unique_ptr<AdminHttpServer> admin(
      new AdminHttpServer(std::move(handlers), std::move(options)));
  P3PDB_RETURN_IF_ERROR(admin->Bind());
  admin->thread_ = std::thread([raw = admin.get()] { raw->AcceptLoop(); });
  return admin;
}

AdminHttpServer::~AdminHttpServer() { Stop(); }

Status AdminHttpServer::Bind() {
  if (::pipe(wake_pipe_) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("admin host is not an IPv4 address: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal("bind " + options_.host + ":" +
                            std::to_string(options_.port) + ": " +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  // Read back the bound port: with port 0 the kernel picked an ephemeral
  // one, which tests (and log lines) need.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void AdminHttpServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (wake_pipe_[1] >= 0) {
    char byte = 'q';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

void AdminHttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // self-pipe: shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // One request at a time, handled on this thread: admin traffic is a
    // human or a scraper, not a workload worth a thread pool.
    HandleConnection(conn);
    ::close(conn);
  }
}

void AdminHttpServer::HandleConnection(int fd) {
  // Read until the end of the request head. GETs have no body, so the
  // blank line is the whole request; cap the head at 8 KiB.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string head;
  char buf[1024];
  while (head.size() < 8192 && head.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    head.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return;
  std::string_view request_line(head.data(), line_end);
  size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos) return;
  size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return;
  std::string_view method = request_line.substr(0, sp1);
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  std::string content_type = "text/plain; charset=utf-8";
  int status = 200;
  std::string body = Route(method, target, &content_type, &status);

  std::string response = "HTTP/1.1 " + std::to_string(status) + " " +
                         StatusText(status) + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  SendAll(fd, response);
  ::shutdown(fd, SHUT_WR);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

std::string AdminHttpServer::Route(std::string_view method,
                                   std::string_view target,
                                   std::string* content_type, int* status) {
  if (method != "GET") {
    *status = 405;
    return "method not allowed\n";
  }
  std::string_view path = target;
  std::string_view query;
  if (size_t qmark = target.find('?'); qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }
  if (path == "/healthz" && handlers_.healthz_json) {
    *content_type = "application/json";
    return handlers_.healthz_json();
  }
  if (path == "/metrics" && handlers_.metrics_text) {
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return handlers_.metrics_text();
  }
  if (path == "/metrics.json" && handlers_.metrics_json) {
    *content_type = "application/json";
    return handlers_.metrics_json();
  }
  if (path == "/statements" && handlers_.statements_json) {
    *content_type = "application/json";
    return handlers_.statements_json(TopFromQuery(query, 20));
  }
  if (path == "/slow" && handlers_.slow_json) {
    *content_type = "application/json";
    return handlers_.slow_json();
  }
  if (path == "/traces" && handlers_.traces_json) {
    *content_type = "application/json";
    return handlers_.traces_json();
  }
  *status = 404;
  return "not found\n";
}

}  // namespace p3pdb::server
