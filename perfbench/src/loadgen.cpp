#include "loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include "common.hpp"
#include "protocol.hpp"

namespace perfbench {

namespace {

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

OpenLoopGenerator::OpenLoopGenerator(const std::string& socket,
                                     int connections) {
  for (int i = 0; i < connections; ++i) {
    voprof::util::Result<voprof::serve::Fd> fd =
        voprof::serve::connect_unix(socket);
    if (!fd.ok()) {
      throw std::runtime_error("connect " + socket + ": " +
                               fd.error().to_string());
    }
    Conn conn;
    conn.fd = std::move(fd).take();
    const int flags = ::fcntl(conn.fd.get(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(conn.fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
      fail_errno("fcntl");
    }
    conns_.push_back(std::move(conn));
  }
}

void OpenLoopGenerator::flush(Conn& conn) {
  std::size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.out.data() + sent,
                             conn.out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_errno("send to voprofd");
  }
  conn.out.erase(0, sent);
}

void OpenLoopGenerator::receive(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw std::runtime_error("voprofd closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    fail_errno("recv from voprofd");
  }
}

PhaseResult OpenLoopGenerator::run(const std::vector<Planned>& plan,
                                   const LineFn& line, const CheckFn& check,
                                   std::int64_t drain_ns) {
  const std::size_t n = plan.size();
  PhaseResult r;
  r.outcomes.resize(n);
  r.id_base = next_id_;
  next_id_ += n;
  std::vector<pollfd> pfds(conns_.size());
  std::size_t next = 0;
  std::size_t answered = 0;
  std::int64_t last_send_ns = 0;
  char id_buf[24];
  r.start_ns = now_ns() + kNsPerMs;
  for (;;) {
    const std::int64_t now = now_ns();
    while (next < n && r.start_ns + plan[next].due_ns <= now) {
      const std::to_chars_result id_end =
          std::to_chars(id_buf, id_buf + sizeof id_buf, r.id_base + next);
      const std::string_view id(
          id_buf, static_cast<std::size_t>(id_end.ptr - id_buf));
      Conn& conn = conns_[next % conns_.size()];
      conn.out += line(next, id);
      conn.out.push_back('\n');
      r.outcomes[next].lag_ns = now - (r.start_ns + plan[next].due_ns);
      if (++next == n) {
        last_send_ns = now;
        r.backlog_at_last_send = n - answered;
      }
    }
    for (Conn& conn : conns_) {
      if (!conn.out.empty()) flush(conn);
    }
    if (answered == n) break;
    if (next == n && now - last_send_ns >= drain_ns) break;
    std::int64_t wait_ns =
        next < n ? r.start_ns + plan[next].due_ns - now
                 : std::min<std::int64_t>(5 * kNsPerMs,
                                          drain_ns - (now - last_send_ns));
    wait_ns = std::max<std::int64_t>(0, wait_ns);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      pfds[c].fd = conns_[c].fd.get();
      pfds[c].events = static_cast<short>(
          POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / kNsPerS),
                           static_cast<long>(wait_ns % kNsPerS)};
    const int rc = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail_errno("ppoll");
    }
    if (rc == 0) continue;
    const std::int64_t arrived = now_ns();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[c];
      receive(conn);
      std::size_t pos = 0;
      std::size_t nl = conn.in.find('\n', pos);
      while (nl != std::string::npos) {
        const std::string_view response(conn.in.data() + pos, nl - pos);
        pos = nl + 1;
        nl = conn.in.find('\n', pos);
        const std::string_view id = response_id(response);
        std::uint64_t value = 0;
        const std::from_chars_result parsed =
            std::from_chars(id.data(), id.data() + id.size(), value);
        // Skip ids that are not this phase's (a late answer from an
        // earlier phase, or a line without an id).
        if (id.empty() || parsed.ec != std::errc{} ||
            parsed.ptr != id.data() + id.size() || value < r.id_base ||
            value - r.id_base >= n) {
          continue;
        }
        const std::size_t i = static_cast<std::size_t>(value - r.id_base);
        Outcome& o = r.outcomes[i];
        if (o.latency_ns >= 0) continue;
        o.latency_ns = arrived - (r.start_ns + plan[i].due_ns);
        o.ok = response_ok(response);
        o.correct = o.ok && check(i, id, response);
        ++answered;
      }
      conn.in.erase(0, pos);
    }
  }
  return r;
}

}  // namespace perfbench
