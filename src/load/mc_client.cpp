#include "load/mc_client.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "load/openloop.hpp"
#include "net/socket.hpp"

namespace icilk::load {

McClient::McClient(const Config& cfg)
    : cfg_(cfg),
      rng_(cfg.seed, 77),
      value_(static_cast<std::size_t>(cfg.value_size), 'v') {}

McClient::~McClient() {
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epfd_ >= 0) ::close(epfd_);
}

std::string McClient::key_of(int i) const {
  return "key" + std::to_string(i);
}

bool McClient::setup() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) return false;
  conns_.resize(static_cast<std::size_t>(cfg_.connections));
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const int fd = net::connect_tcp(cfg_.port);
    if (fd < 0) return false;
    net::set_nodelay(fd);
    conns_[i].fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  }

  // Preload the keyspace over connection 0: noreply sets need no response
  // parsing; a trailing `version` acts as a completion barrier.
  Conn& c0 = conns_[0];
  std::string blob;
  for (int k = 0; k < cfg_.keyspace; ++k) {
    blob += "set " + key_of(k) + " 0 0 " + std::to_string(value_.size()) +
            " noreply\r\n" + value_ + "\r\n";
  }
  blob += "version\r\n";
  std::size_t off = 0;
  std::string resp;
  char buf[4096];
  while (off < blob.size() || resp.find("\r\n") == std::string::npos) {
    if (off < blob.size()) {
      const ssize_t w =
          ::send(c0.fd, blob.data() + off, blob.size() - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        return false;
      }
    }
    const ssize_t r = ::read(c0.fd, buf, sizeof(buf));
    if (r > 0) {
      resp.append(buf, static_cast<std::size_t>(r));
    } else if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      return false;
    }
  }
  return resp.rfind("VERSION", 0) == 0;
}

void McClient::recycle(Conn& c) {
  // Requests written to a dead connection never get responses; count them
  // now so run()'s completion condition doesn't wait on them.
  errors_ += c.pending.size() - c.pending_head;
  if (c.fd >= 0) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }
  c.out.clear();
  c.in.clear();
  c.parse_pos = 0;
  c.pending.clear();
  c.pending_head = 0;

  const int fd = net::connect_tcp(cfg_.port);
  if (fd < 0) return;  // slot stays down; later requests on it error out
  net::set_nodelay(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<std::uint32_t>(&c - conns_.data());
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  c.fd = fd;
  ++reconnects_;
}

void McClient::fire_request(Conn& c, std::uint64_t arrival_ns) {
  if (c.fd < 0) {
    recycle(c);
    if (c.fd < 0) {
      ++errors_;  // reconnect failed; the request is lost, not stalled
      return;
    }
  }
  const bool is_get = rng_.uniform() < cfg_.get_fraction;
  const std::string key =
      key_of(static_cast<int>(rng_.bounded(
          static_cast<std::uint32_t>(cfg_.keyspace))));
  if (is_get) {
    c.out += "get " + key + "\r\n";
  } else {
    c.out += "set " + key + " 0 0 " + std::to_string(value_.size()) + "\r\n" +
             value_ + "\r\n";
  }
  c.pending.push_back(Pending{arrival_ns, is_get});
  flush(c);
}

bool McClient::flush(Conn& c) {
  if (c.fd < 0) return false;
  while (!c.out.empty()) {
    // MSG_NOSIGNAL: a server killing the connection mid-request must
    // surface as EPIPE (handled by recycle), not a process-fatal SIGPIPE.
    const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (w > 0) {
      c.out.erase(0, static_cast<std::size_t>(w));
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // kernel buffer full; retried on the next pass
    } else {
      recycle(c);  // EPIPE/ECONNRESET mid-request: replace the connection
      return false;
    }
  }
  return true;
}

bool McClient::consume_response(Conn& c, Histogram& hist) {
  if (c.pending_head >= c.pending.size()) {
    // Unexpected bytes with nothing outstanding: protocol desync.
    if (c.in.size() > c.parse_pos) {
      ++errors_;
      c.in.clear();
      c.parse_pos = 0;
    }
    return false;
  }
  const Pending& p = c.pending[c.pending_head];
  std::string_view in(c.in);
  std::size_t pos = c.parse_pos;
  bool ok = true;  // each reply counts once: as a sample or as an error

  if (p.is_get) {
    // Zero or more "VALUE <k> <f> <len>[ <cas>]\r\n<len bytes>\r\n", then
    // "END\r\n". Length-prefix skipping keeps binary values safe.
    for (;;) {
      const std::size_t nl = in.find("\r\n", pos);
      if (nl == std::string_view::npos) return false;
      const std::string_view line = in.substr(pos, nl - pos);
      if (line == "END") {
        pos = nl + 2;
        break;
      }
      if (line.rfind("VALUE ", 0) == 0) {
        // third space-separated field is the byte count
        std::size_t sp2 = line.find(' ', 6);
        if (sp2 == std::string_view::npos) return false;
        std::size_t sp3 = line.find(' ', sp2 + 1);
        if (sp3 == std::string_view::npos) return false;
        std::size_t len_end = line.find(' ', sp3 + 1);
        if (len_end == std::string_view::npos) len_end = line.size();
        const std::size_t len = static_cast<std::size_t>(
            std::strtoull(std::string(line.substr(sp3 + 1,
                                                  len_end - sp3 - 1))
                              .c_str(),
                          nullptr, 10));
        const std::size_t need = nl + 2 + len + 2;
        if (in.size() < need) return false;
        pos = need;
      } else {
        // ERROR line etc.: treat the line as the whole response.
        ok = false;
        pos = nl + 2;
        break;
      }
    }
  } else {
    const std::size_t nl = in.find("\r\n", pos);
    if (nl == std::string_view::npos) return false;
    ok = in.substr(pos, nl - pos) == "STORED";
    pos = nl + 2;
  }

  if (ok) {
    const std::uint64_t latency = now_ns() - p.arrival_ns;
    hist.record(latency);
    if (buckets_ != nullptr && p.arrival_ns >= epoch_) {
      buckets_->record(p.arrival_ns - epoch_, latency);
    }
  } else {
    ++errors_;
  }
  c.pending_head++;
  c.parse_pos = pos;
  // Periodic compaction of consumed state.
  if (c.parse_pos > 1 << 16) {
    c.in.erase(0, c.parse_pos);
    c.parse_pos = 0;
  }
  if (c.pending_head > 1024) {
    c.pending.erase(c.pending.begin(),
                    c.pending.begin() +
                        static_cast<std::ptrdiff_t>(c.pending_head));
    c.pending_head = 0;
  }
  return true;
}

bool McClient::drain_input(Conn& c, Histogram& hist) {
  if (c.fd < 0) return false;
  char buf[16384];
  for (;;) {
    const ssize_t r = ::read(c.fd, buf, sizeof(buf));
    if (r > 0) {
      c.in.append(buf, static_cast<std::size_t>(r));
      while (consume_response(c, hist)) {
      }
      if (r < static_cast<ssize_t>(sizeof(buf))) return true;
    } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      recycle(c);  // EOF or hard error (reset): replace the connection
      return false;
    }
  }
}

std::size_t McClient::run(const std::vector<std::uint64_t>& arrivals,
                          Histogram& hist, double drain_timeout_s) {
  const std::uint64_t epoch = now_ns();
  epoch_ = epoch;
  const std::uint64_t start_count = hist.count();
  std::size_t next = 0;
  std::size_t outstanding_target = arrivals.size();

  epoll_event events[64];
  std::uint64_t drain_deadline = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    // Fire all due arrivals.
    while (next < arrivals.size() && epoch + arrivals[next] <= now) {
      Conn& c = conns_[rr_++ % conns_.size()];
      fire_request(c, epoch + arrivals[next]);
      ++next;
    }
    // Flush any backpressured output.
    for (auto& c : conns_) {
      if (!c.out.empty()) flush(c);
    }

    const std::uint64_t done = hist.count() - start_count;
    if (next == arrivals.size()) {
      if (done + errors_ >= outstanding_target) break;
      if (drain_deadline == 0) {
        drain_deadline =
            now + static_cast<std::uint64_t>(drain_timeout_s * 1e9);
      } else if (now > drain_deadline) {
        break;  // give up on stragglers
      }
    }

    int timeout_ms = 1;
    if (next < arrivals.size()) {
      const std::uint64_t at = epoch + arrivals[next];
      timeout_ms = (at > now) ? static_cast<int>((at - now) / 1000000) : 0;
      if (timeout_ms > 5) timeout_ms = 5;
    }
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      Conn& c = conns_[events[i].data.u32];
      drain_input(c, hist);
    }
  }
  return static_cast<std::size_t>(hist.count() - start_count);
}

}  // namespace icilk::load
