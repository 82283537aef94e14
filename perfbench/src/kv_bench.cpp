// kv-small and kv-large: minicached's I-Cilk frontend driven over loopback
// TCP by a verifying closed-loop client on the main thread.
//
// Each connection owns a disjoint slice of the key space. A value's bytes
// are a function of (seed, key, version), and the client remembers the
// version it last sent for every key, so every GET reply is checked
// byte for byte and every SET must answer STORED. Connections keep a
// fixed number of requests outstanding; a new request goes out as soon as
// a reply comes back.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/memcached/icilk_server.hpp"
#include "common.hpp"
#include "concurrent/rng.hpp"
#include "core/api.hpp"
#include "io/reactor.hpp"
#include "kv/protocol.hpp"
#include "net/socket.hpp"

namespace perfbench {

namespace {

struct KvShape {
  const char* name;
  int conns;
  int depth;  ///< requests outstanding per connection
  std::size_t value_bytes;
  std::uint32_t get_pct;
  std::uint32_t keys_per_conn;
};

// The key spaces stay far inside the store's default 64 MiB budget, so
// nothing is evicted and every GET must hit. Both use two connections:
// with four, on a 4-vCPU virtual machine, the one load thread was busy
// 90-94% of the time (a loopback send that wakes a sleeping server thread
// cost it ~6 us), so the loop measured the client and ops/s varied 15-27%
// from run to run.
constexpr KvShape kSmall{"kv-small", 2, 1, 100, 90, 16384};
constexpr KvShape kLarge{"kv-large", 2, 4, 4096, 30, 2048};

// Server threads: 2 workers + 1 I/O thread, plus this load thread = 4.
constexpr int kWorkers = 2;
constexpr int kIoThreads = 1;

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The bytes of value (key, version): a 16-character header naming both,
/// then a stretch of a seed-derived block of printable bytes at an offset
/// (key, version) selects. Writing a value is a copy and checking one a
/// compare, which keeps the load thread cheap next to the server.
class Values {
 public:
  Values(std::uint64_t seed, std::size_t n)
      : n_(n), salt_(mix64(seed ^ 0x6b762d62656e6368ull)), block_(kBlock + n, ' ') {
    static constexpr char kAlpha[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    std::uint64_t x = salt_;
    for (char& ch : block_) {
      x += 0x9E3779B97F4A7C15ull;
      ch = kAlpha[mix64(x) & 63];
    }
  }

  std::size_t size() const { return n_; }

  void write(std::uint32_t key, std::uint32_t version, char* out) const {
    header(key, version, out);
    std::memcpy(out + kHeader, block_.data() + offset(key, version), n_ - kHeader);
  }

  bool matches(std::uint32_t key, std::uint32_t version, const char* in) const {
    char h[kHeader];
    header(key, version, h);
    return std::memcmp(in, h, kHeader) == 0 &&
           std::memcmp(in + kHeader, block_.data() + offset(key, version),
                       n_ - kHeader) == 0;
  }

 private:
  static constexpr std::size_t kHeader = 16;
  static constexpr std::size_t kBlock = 8192;

  std::size_t offset(std::uint32_t key, std::uint32_t version) const {
    return mix64(salt_ ^ (std::uint64_t{key} << 32) ^ version) % kBlock;
  }
  static void header(std::uint32_t key, std::uint32_t version, char* out) {
    const std::uint64_t v = (std::uint64_t{key} << 32) | version;
    for (std::size_t i = 0; i < kHeader; ++i) {
      out[i] = "0123456789abcdef"[(v >> (60 - 4 * i)) & 15];
    }
  }

  std::size_t n_;
  std::uint64_t salt_;
  std::string block_;
};

std::string key_name(std::uint32_t k) {
  char b[24];
  std::snprintf(b, sizeof(b), "key:%07u", k);
  return b;
}

struct Pending {
  std::uint32_t key;
  std::uint32_t version;  ///< SET: version sent; GET: version expected
  bool get;
  bool measured;
  std::uint64_t sent_ns;
};

struct Conn {
  int fd = -1;
  std::uint32_t first_key = 0;
  std::vector<std::uint32_t> version;  ///< last version sent, per own key
  icilk::Xoshiro256 rng;
  std::deque<Pending> pend;
  std::size_t unsent = 0;  ///< tail of `pend` not yet written
  std::string tx;
  std::string rx;
  std::size_t rpos = 0;
  bool buffered = false;  ///< rx holds bytes read outside pump()
};

/// Counts over the measured requests, for the cross-checks against the
/// server's own counters.
struct WindowCounts {
  std::uint64_t done = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stored = 0;
  std::uint64_t latency_ns = 0;
};

class KvClient {
 public:
  KvClient(const KvShape& shape, std::uint64_t seed, int port, Result& r)
      : shape_(shape), values_(seed, shape.value_bytes), r_(r) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    const std::uint32_t nkeys = shape.keys_per_conn * shape.conns;
    keys_.reserve(nkeys);
    for (std::uint32_t k = 0; k < nkeys; ++k) keys_.push_back(key_name(k));
    conns_.resize(static_cast<std::size_t>(shape.conns));
    for (int i = 0; i < shape.conns; ++i) {
      Conn& c = conns_[static_cast<std::size_t>(i)];
      c.fd = icilk::net::connect_tcp(static_cast<std::uint16_t>(port));
      if (c.fd < 0) throw std::runtime_error("connect failed");
      icilk::net::set_nodelay(c.fd);
      c.first_key = static_cast<std::uint32_t>(i) * shape.keys_per_conn;
      c.version.assign(shape.keys_per_conn, 0);
      c.rng = icilk::Xoshiro256(seed, static_cast<std::uint64_t>(i) + 1);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
    }
  }

  ~KvClient() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ep_ >= 0) ::close(ep_);
  }

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Stores every key at version 1 straight into the server's store, so
  /// set-up time measures the server's construction, not a load phase.
  void preload(icilk::kv::Store& store) {
    std::string value(values_.size(), ' ');
    for (std::uint32_t k = 0; k < keys_.size(); ++k) {
      values_.write(k, 1, value.data());
      if (store.set(keys_[k], value, 0, 0) != icilk::kv::StoreResult::Stored) {
        throw std::runtime_error("preload: store refused " + keys_[k]);
      }
    }
    for (auto& c : conns_) c.version.assign(shape_.keys_per_conn, 1);
  }

  /// Closed loop until `until_ns`; then stops issuing (replies still in
  /// flight are collected by drain()).
  void run_until(std::uint64_t until_ns, bool measured) {
    mode_ = Mode::kLoad;
    measured_ = measured;
    for (auto& c : conns_) top_up(c);
    while (mono_ns() < until_ns) pump(true);
    mode_ = Mode::kIdle;
  }

  void drain() {
    while (outstanding() > 0) pump(false);
  }

  void set_spans(SpanLog* s) { spans_ = s; }

  std::vector<std::uint64_t>& samples() { return samples_; }
  const WindowCounts& window() const { return win_; }
  std::uint64_t wait_ns() const { return wait_ns_; }

 private:
  enum class Mode { kIdle, kLoad };

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c.pend.size();
    return n;
  }

  void top_up(Conn& c) {
    while (c.pend.size() < static_cast<std::size_t>(shape_.depth) && issue(c)) {
    }
    flush(c);
  }

  /// Appends one request to c.tx; false when there is nothing to send.
  bool issue(Conn& c) {
    if (mode_ != Mode::kLoad) return false;
    Pending p{};
    p.measured = measured_;
    p.key = c.first_key + c.rng.bounded(shape_.keys_per_conn);
    p.get = c.rng.bounded(100) < shape_.get_pct;
    std::uint32_t& v = c.version[p.key - c.first_key];
    const std::string& key = keys_[p.key];
    if (p.get) {
      p.version = v;
      c.tx += "get ";
      c.tx += key;
      c.tx += "\r\n";
    } else {
      p.version = ++v;
      char head[64];
      std::snprintf(head, sizeof(head), " 0 0 %zu\r\n", shape_.value_bytes);
      c.tx += "set ";
      c.tx += key;
      c.tx += head;
      const std::size_t at = c.tx.size();
      c.tx.resize(at + shape_.value_bytes);
      values_.write(p.key, p.version, c.tx.data() + at);
      c.tx += "\r\n";
    }
    c.pend.push_back(p);
    ++c.unsent;
    return true;
  }

  void flush(Conn& c) {
    if (c.tx.empty()) return;
    const std::uint64_t now = mono_ns();
    for (std::size_t i = c.pend.size() - c.unsent; i < c.pend.size(); ++i) {
      c.pend[i].sent_ns = now;
    }
    c.unsent = 0;
    std::size_t off = 0;
    while (off < c.tx.size()) {
      const ssize_t w = ::send(c.fd, c.tx.data() + off, c.tx.size() - off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && errno == EAGAIN) {
        // Keep reading while the send buffer is full, so neither side can
        // block the other.
        pollfd pfd{c.fd, POLLIN | POLLOUT, 0};
        ::poll(&pfd, 1, 100);
        if (pfd.revents & POLLIN) {
          if (!read_some(c)) throw std::runtime_error("server closed a connection");
          c.buffered = true;
        }
        continue;
      }
      throw std::runtime_error("send failed: " + std::string(strerror(errno)));
    }
    c.tx.clear();
  }

  /// Reads what is available; false on EOF or error.
  bool read_some(Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.rx.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno == EAGAIN) return true;
      return false;
    }
  }

  /// One wait for readiness plus the processing of every reply it brings.
  void pump(bool reissue) {
    bool buffered = false;
    for (const auto& c : conns_) buffered = buffered || c.buffered;
    epoll_event evs[8];
    // Busy-polls: a load thread that slept in epoll_wait would add its
    // own wake-up to every measured latency.
    const std::uint64_t w0 = mono_ns();
    const int n = ::epoll_wait(ep_, evs, 8, 0);
    const std::uint64_t w1 = mono_ns();
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
    if (n <= 0 && !buffered) {
      if (idle_since_ == 0) idle_since_ = w0;
      if (w1 - last_reply_ns_ > 10'000'000'000ull) {
        throw std::runtime_error("no reply for 10 s");
      }
      return;
    }
    if (idle_since_ != 0) {
      wait_ns_ += w0 - idle_since_;
      idle_since_ = 0;
    }
    for (int i = 0; i < n; ++i) {
      Conn& c = conns_[evs[i].data.u32];
      if (!read_some(c)) throw std::runtime_error("server closed a connection");
      c.buffered = true;
    }
    const std::uint64_t t = mono_ns();
    last_reply_ns_ = t;
    for (auto& c : conns_) {
      if (c.buffered) process(c, reissue, t);
    }
  }

  /// Completes every whole reply buffered on `c` (read at time `t`) and
  /// sends the requests that replace them.
  void process(Conn& c, bool reissue, std::uint64_t t) {
    c.buffered = false;
    while (!c.pend.empty() && c.pend.size() > c.unsent) {
      bool ok = false;
      if (!parse_reply(c, c.pend.front(), ok)) break;
      complete(c.pend.front(), ok, t);
      c.pend.pop_front();
    }
    // A connection sends its next batch of `depth` pipelined requests once
    // the whole previous batch is answered.
    if (reissue && c.pend.empty()) top_up(c);
    if (c.rpos > 65536 && c.rpos * 2 > c.rx.size()) {
      c.rx.erase(0, c.rpos);
      c.rpos = 0;
    }
    flush(c);
  }

  void complete(const Pending& p, bool ok, std::uint64_t t) {
    ++r_.attempted;
    if (!ok) ++r_.failed;
    if (!p.measured) return;
    const std::uint64_t lat = t - p.sent_ns;
    samples_.push_back(lat);
    ++win_.done;
    win_.latency_ns += lat;
    if (spans_ != nullptr) {
      spans_->record(p.get ? "kv.get" : "kv.set", p.sent_ns, t, ++span_id_);
    }
  }

  /// Parses the reply to `p` at c.rx[c.rpos..]. Returns false when more
  /// bytes are needed; `ok` says whether the reply was the right one.
  bool parse_reply(Conn& c, const Pending& p, bool& ok) {
    const std::string_view rx(c.rx);
    const std::size_t eol = rx.find("\r\n", c.rpos);
    if (eol == std::string_view::npos) return false;
    const std::string_view line = rx.substr(c.rpos, eol - c.rpos);
    const std::size_t after_line = eol + 2;
    if (line.starts_with("ERROR") || line.starts_with("CLIENT_ERROR") ||
        line.starts_with("SERVER_ERROR")) {
      c.rpos = after_line;
      ok = false;
      return true;
    }
    if (!p.get) {
      c.rpos = after_line;
      ok = line == "STORED";
      if (ok && p.measured) ++win_.stored;
      if (!ok && !(line == "NOT_STORED" || line == "EXISTS" || line == "NOT_FOUND")) {
        throw std::runtime_error("unparseable SET reply");
      }
      return true;
    }
    if (line == "END") {
      c.rpos = after_line;
      ok = false;
      if (p.measured) ++win_.misses;
      return true;
    }
    // VALUE <key> <flags> <bytes>
    const std::string& key = keys_[p.key];
    char want[64];
    std::snprintf(want, sizeof(want), "VALUE %s 0 %zu", key.c_str(),
                  shape_.value_bytes);
    if (!line.starts_with("VALUE ")) {
      throw std::runtime_error("unparseable GET reply");
    }
    std::size_t bytes = 0;
    const std::size_t last_sp = line.rfind(' ');
    for (std::size_t i = last_sp + 1; i < line.size(); ++i) {
      if (line[i] < '0' || line[i] > '9') {
        throw std::runtime_error("unparseable GET reply length");
      }
      bytes = bytes * 10 + static_cast<std::size_t>(line[i] - '0');
    }
    const std::size_t need = after_line + bytes + 2 + 5;
    if (rx.size() < need) return false;
    if (rx.substr(after_line + bytes, 7) != "\r\nEND\r\n") {
      throw std::runtime_error("GET reply not terminated by END");
    }
    c.rpos = need;
    if (p.measured) ++win_.hits;
    if (line != want) {
      ok = false;
      return true;
    }
    ok = values_.matches(p.key, p.version, rx.data() + after_line);
    return true;
  }

  const KvShape& shape_;
  const Values values_;
  Result& r_;
  int ep_ = -1;
  std::vector<std::string> keys_;
  std::vector<Conn> conns_;
  Mode mode_ = Mode::kIdle;
  bool measured_ = false;
  std::vector<std::uint64_t> samples_;
  WindowCounts win_;
  std::uint64_t wait_ns_ = 0;
  std::uint64_t idle_since_ = 0;  ///< start of the current run of empty polls
  std::uint64_t last_reply_ns_ = mono_ns();
  SpanLog* spans_ = nullptr;
  std::uint64_t span_id_ = 0;
};

/// write_all + read_some of `n` bytes over a socketpair, through the
/// server's reactor from a task; microseconds per exchange. A failed
/// exchange fails the run.
double price_io_rtt_us(icilk::apps::ICilkMcServer& srv, std::size_t n,
                       SpanLog& spans, const char* name, Result& r) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    r.check(false, std::string(name) + ": socketpair failed");
    return 0;
  }
  icilk::net::set_nonblocking(sv[0]);
  icilk::net::set_nonblocking(sv[1]);
  std::vector<char> out(n, 'x'), in(n);
  constexpr std::uint64_t kIters = 20000;
  double ns = 0;
  bool ok = true;
  srv.runtime()
      .submit(1, [&] {
        icilk::IoReactor& io = srv.reactor();
        ns = price_ns(spans, name, kIters, [&](std::uint64_t) {
          if (io.write_all(sv[0], out.data(), n) != static_cast<ssize_t>(n)) {
            ok = false;
          }
          for (std::size_t got = 0; got < n;) {
            const ssize_t k = io.read_some(sv[1], in.data() + got, n - got);
            if (k <= 0) {
              ok = false;
              break;
            }
            got += static_cast<std::size_t>(k);
          }
        });
      })
      .get();
  srv.reactor().close_fd(sv[0]);
  srv.reactor().close_fd(sv[1]);
  r.check(ok, std::string(name) + ": a reactor write_all/read_some failed");
  return ns / 1e3;
}

/// The same exchange with plain blocking syscalls on this thread.
double price_raw_rtt_us(std::size_t n, SpanLog& spans, Result& r) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    r.check(false, "io.raw_rtt: socketpair failed");
    return 0;
  }
  std::vector<char> out(n, 'x'), in(n);
  bool ok = true;
  const double ns = price_ns(spans, "io.raw_rtt", 20000, [&](std::uint64_t) {
    if (::write(sv[0], out.data(), n) != static_cast<ssize_t>(n)) ok = false;
    for (std::size_t got = 0; got < n;) {
      const ssize_t k = ::read(sv[1], in.data() + got, n - got);
      if (k <= 0) {
        ok = false;
        break;
      }
      got += static_cast<std::size_t>(k);
    }
  });
  ::close(sv[0]);
  ::close(sv[1]);
  r.check(ok, "io.raw_rtt: a write/read failed");
  return ns / 1e3;
}

volatile std::uint64_t g_sink;  // keeps the priced loops observable

/// kv.* prices on a private store holding the workload's key space, with
/// requests drawn from the workload's mix.
void price_kv(const KvShape& shape, std::uint64_t seed, SpanLog& spans,
              Result& r) {
  icilk::kv::Store store;
  const std::uint32_t nkeys = shape.keys_per_conn * shape.conns;
  std::vector<std::string> keys;
  for (std::uint32_t k = 0; k < nkeys; ++k) keys.push_back(key_name(k));
  std::string value(shape.value_bytes, 'v');
  for (const auto& k : keys) store.set(k, value, 0, 0);

  icilk::Xoshiro256 rng(seed, 99);
  constexpr std::uint64_t kN = 20000;
  std::vector<std::uint32_t> pick(kN);
  std::vector<std::string> wire(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    pick[i] = rng.bounded(nkeys);
    if (rng.bounded(100) < shape.get_pct) {
      wire[i] = "get " + keys[pick[i]] + "\r\n";
    } else {
      wire[i] = "set " + keys[pick[i]] + " 0 0 " +
                std::to_string(shape.value_bytes) + "\r\n" + value + "\r\n";
    }
  }
  std::uint64_t sink = 0;
  r.add("kv.store_get_ns", price_ns(spans, "kv.store_get", kN, [&](std::uint64_t i) {
          if (auto g = store.get(keys[pick[i]])) sink += g->value.size();
        }), "ns");
  r.add("kv.store_set_ns", price_ns(spans, "kv.store_set", kN, [&](std::uint64_t i) {
          sink += static_cast<std::uint64_t>(store.set(keys[pick[i]], value, 0, 0));
        }), "ns");
  icilk::kv::RequestParser parser;
  std::vector<icilk::kv::Request> reqs(kN);
  r.add("kv.parse_ns", price_ns(spans, "kv.parse", kN, [&](std::uint64_t i) {
          parser.feed(wire[i]);
          if (!parser.next(reqs[i])) reqs[i].verb = icilk::kv::Verb::Bad;
        }), "ns");
  bool parsed = true;
  for (const auto& q : reqs) parsed = parsed && q.verb != icilk::kv::Verb::Bad;
  r.check(parsed, "kv pricing: RequestParser rejected a well-formed request");
  icilk::kv::Response out;
  r.add("kv.execute_ns", price_ns(spans, "kv.execute", kN, [&](std::uint64_t i) {
          out.clear();
          icilk::kv::execute(reqs[i], store, out);
          sink += out.size();
        }), "ns");
  g_sink = sink;
}

}  // namespace

int run_kv(const Options& o, bool large, Result& r) {
  const KvShape& shape = large ? kLarge : kSmall;
  const std::uint64_t t_build = mono_ns();
  const CpuSplit cpus;

  icilk::apps::ICilkMcServer::Config cfg;
  cfg.rt.num_workers = kWorkers;
  cfg.rt.num_io_threads = kIoThreads;
  auto srv = std::make_unique<icilk::apps::ICilkMcServer>(
      cfg, icilk::make_scheduler("prompt"));
  icilk::Runtime& rt = srv->runtime();
  icilk::IoReactor& io = srv->reactor();
  cpus.load_cpu();
  SpanLog spans;

  try {
    KvClient client(shape, o.seed, srv->port(), r);
    client.preload(srv->store());
    const double setup_s = static_cast<double>(mono_ns() - o.t0_ns) / 1e9;

    client.run_until(mono_ns() + kWarmupNs, false);
    client.drain();
    // Let the server finish recording the last warm-up requests, so the
    // counters below cover exactly the measured requests.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const icilk::kv::StoreStats st0 = srv->store().stats();
    const CoreSnap q0 = core_snap(rt);

    const int k = slice_count(o);
    const int traced_from = o.trace ? k / 2 : k;
    std::vector<Slice> slices;
    std::vector<std::uint64_t> traced_lat;
    CoreSnap c0;
    std::uint64_t inl0 = 0, sub0 = 0, polls0 = 0;
    for (int j = 0; j < k; ++j) {
      if (j == traced_from) {
        c0 = core_snap(rt);
        inl0 = io.ops_inline_for_test();
        sub0 = io.ops_submitted_for_test();
        polls0 = io.worker_polls_for_test();
        rt.trace_sink().set_enabled(true);
        client.set_spans(&spans);
      }
      SliceClock clock(client.wait_ns());
      const std::size_t first = client.samples().size();
      client.run_until(clock.start_ns + kSliceNs, true);
      client.drain();
      std::vector<std::uint64_t> lat(client.samples().begin() + static_cast<long>(first),
                                     client.samples().end());
      if (j >= traced_from) traced_lat.insert(traced_lat.end(), lat.begin(), lat.end());
      const std::size_t ops = lat.size();
      slices.push_back(clock.finish(client.wait_ns(), ops, summarize(std::move(lat))));
    }
    const CoreSnap c1 = core_snap(rt);
    rt.trace_sink().set_enabled(false);
    client.set_spans(nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const icilk::kv::StoreStats st1 = srv->store().stats();
    const CoreSnap q1 = core_snap(rt);

    // ---- checks on the program's outputs ----
    const WindowCounts& w = client.window();
    r.check(st1.get_hits - st0.get_hits == w.hits,
            "store get_hits delta " + std::to_string(st1.get_hits - st0.get_hits) +
                " != client VALUE replies " + std::to_string(w.hits));
    r.check(st1.get_misses - st0.get_misses == w.misses,
            "store get_misses delta != client misses");
    r.check(st1.sets - st0.sets == w.stored,
            "store sets delta " + std::to_string(st1.sets - st0.sets) +
                " != client STORED replies " + std::to_string(w.stored));
    r.check(st1.evictions == 0,
            "store evicted " + std::to_string(st1.evictions) + " items");
    r.check(q1.req_count - q0.req_count <= w.done,
            "server reqtrace count exceeds client requests");
    r.check(q1.req_ns - q0.req_ns <= w.latency_ns,
            "server reqtrace time exceeds client latency");
    check_time_accounting(r, rt, rt.stats_snapshot(),
                          static_cast<double>(mono_ns() - t_build) / 1e9);

    if (!o.trace) {
      add_end_to_end(r, setup_s, slices, summarize(client.samples()), shape.name);
    } else {
      const double ops = add_traced(r, slices, traced_from, summarize(std::move(traced_lat)));
      add_core_metrics(r, c0, c1, ops);
      const std::uint64_t sub = io.ops_submitted_for_test() - sub0;
      r.add("io.inline_frac",
            sub > 0 ? static_cast<double>(io.ops_inline_for_test() - inl0) /
                          static_cast<double>(sub)
                    : 0,
            "ratio");
      r.add("io.worker_polls_per_kop",
            static_cast<double>(io.worker_polls_for_test() - polls0) * 1e3 / ops,
            "1/kop");

      // Priced calls, on the now idle server and private instances.
      if (!large) r.add("fiber.switch_ns", price_fiber_switch_ns(spans), "ns");
      r.add("io.rtt_small_us", price_io_rtt_us(*srv, 128, spans, "io.rtt_small", r), "us");
      r.add("io.rtt_large_us", price_io_rtt_us(*srv, 4096, spans, "io.rtt_large", r), "us");
      r.add("io.rtt_raw_us", price_raw_rtt_us(large ? 4096 : 128, spans, r), "us");
      price_kv(shape, o.seed, spans, r);
      write_traces(shape.name, spans, rt);
    }
  } catch (const std::exception& e) {
    r.check(false, std::string(shape.name) + ": " + e.what());
  }
  srv->stop();
  return 0;
}

}  // namespace perfbench
