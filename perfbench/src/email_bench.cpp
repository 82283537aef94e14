// email: the email server in process, no sockets. The main thread keeps a
// fixed number of operations outstanding through EmailServer::inject and
// injects the next one as soon as the server's per-operation histograms
// show a completion. Latency is what the server records for each
// operation, from inject to completion.
#include <immintrin.h>

#include <algorithm>
#include <stdexcept>

#include "apps/email/codec.hpp"
#include "apps/email/email_server.hpp"
#include "common.hpp"
#include "concurrent/rng.hpp"
#include "core/api.hpp"

namespace perfbench {

namespace {

using icilk::apps::EmailOp;
using icilk::apps::EmailServer;
using icilk::apps::kEmailOpCount;

// Three workers plus this load thread fill the host's 4 cores; the email
// server starts no I/O thread.
constexpr int kWorkers = 3;
constexpr int kUsers = 64;
constexpr int kCap = 128;
constexpr int kBodyBytes = 2048;
constexpr int kOutstanding = 12;

/// Operation mix, in tenths: 4 send, 2 sort, 2 compress, 2 print.
EmailOp op_of(std::uint32_t tenth) {
  if (tenth < 4) return EmailOp::Send;
  if (tenth < 6) return EmailOp::Sort;
  if (tenth < 8) return EmailOp::Compress;
  return EmailOp::Print;
}

class EmailLoad {
 public:
  EmailLoad(EmailServer& srv, std::uint64_t seed)
      : srv_(srv), rng_(seed, 7), sends_(kUsers, 0) {}

  /// Completed operations since construction.
  std::uint64_t completed() const {
    std::uint64_t n = base_;
    for (int i = 0; i < kEmailOpCount; ++i) {
      n += srv_.histogram(static_cast<EmailOp>(i)).count();
    }
    return n;
  }

  void inject(EmailOp op, int user) {
    const std::uint64_t t = mono_ns();
    srv_.inject(op, user, icilk::now_ns());
    if (spans_ != nullptr) spans_->record("email.inject", t, mono_ns(), injected_);
    ++injected_;
    ++per_op_[static_cast<int>(op)];
    if (op == EmailOp::Send) ++sends_[static_cast<std::size_t>(user)];
  }

  /// Seeds every mailbox to its cap through the server's send operation.
  void seed_mailboxes() {
    for (int u = 0; u < kUsers; ++u) {
      for (int k = 0; k < kCap; ++k) inject(EmailOp::Send, u);
    }
    drain();
  }

  void run_until(std::uint64_t until_ns) {
    for (;;) {
      const std::uint64_t done = completed();
      while (injected_ - done < kOutstanding) {
        inject(op_of(rng_.bounded(10)), static_cast<int>(rng_.bounded(kUsers)));
      }
      const std::uint64_t w0 = mono_ns();
      std::uint64_t now = w0;
      while (completed() == done && now < until_ns) {
        _mm_pause();
        now = mono_ns();
      }
      wait_ns_ += now - w0;
      if (now >= until_ns) return;
    }
  }

  void drain() {
    const std::uint64_t t0 = mono_ns();
    while (completed() != injected_) {
      _mm_pause();
      if (mono_ns() - t0 > 10'000'000'000ull) {
        throw std::runtime_error("operations did not complete within 10 s");
      }
    }
  }

  /// At quiescence: checks that every operation injected since the last
  /// call completed exactly once, and hands over (then zeroes) the
  /// server's per-operation histograms.
  std::vector<icilk::load::Histogram> take_histograms(Result& r, const char* when) {
    std::vector<icilk::load::Histogram> out(kEmailOpCount);
    for (int i = 0; i < kEmailOpCount; ++i) {
      const auto op = static_cast<EmailOp>(i);
      icilk::load::Histogram& h = srv_.histogram(op);
      r.check(h.count() == per_op_[i],
              std::string(when) + ": " + icilk::apps::email_op_name(op) +
                  " completed " + std::to_string(h.count()) + " times for " +
                  std::to_string(per_op_[i]) + " injected");
      base_ += h.count();
      per_op_[i] = 0;
      out[static_cast<std::size_t>(i)].merge(h);
      h.reset();
    }
    return out;
  }

  void set_spans(SpanLog* s) { spans_ = s; }
  std::uint64_t injected() const { return injected_; }
  std::uint64_t wait_ns() const { return wait_ns_; }
  const std::vector<std::uint64_t>& sends() const { return sends_; }

 private:
  EmailServer& srv_;
  icilk::Xoshiro256 rng_;
  std::vector<std::uint64_t> sends_;  ///< per user, whole run
  std::uint64_t per_op_[kEmailOpCount] = {};  ///< since the last restart
  std::uint64_t injected_ = 0;
  std::uint64_t base_ = 0;  ///< completions counted before the last restart
  std::uint64_t wait_ns_ = 0;
  SpanLog* spans_ = nullptr;
};

/// Message bodies like the server's: prose over a small lexicon.
std::vector<std::string> sample_bodies(std::uint64_t seed, int n) {
  static const char* kWords[] = {"meeting", "tomorrow", "report",  "draft",
                                 "please",  "review",   "attached", "thanks",
                                 "schedule", "latency", "server",  "priority",
                                 "the",     "and",      "for",     "with"};
  icilk::Xoshiro256 rng(seed, 11);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    std::string b;
    while (b.size() < static_cast<std::size_t>(kBodyBytes)) {
      b += kWords[rng.bounded(std::size(kWords))];
      b += ' ';
    }
    b.resize(kBodyBytes);
    out.push_back(std::move(b));
  }
  return out;
}

volatile std::uint64_t g_sink;  // keeps the priced loops observable

}  // namespace

int run_email(const Options& o, Result& r) {
  const std::uint64_t t_build = mono_ns();
  const CpuSplit cpus;
  EmailServer::Config cfg;
  cfg.rt.num_workers = kWorkers;
  cfg.rt.num_io_threads = 0;
  cfg.num_users = kUsers;
  cfg.max_mailbox = kCap;
  cfg.body_bytes = kBodyBytes;
  cfg.seed = o.seed;
  EmailServer srv(cfg, icilk::make_scheduler("prompt"));
  icilk::Runtime& rt = srv.runtime();
  cpus.load_cpu();
  EmailLoad load(srv, o.seed);
  SpanLog spans;

  try {
    load.seed_mailboxes();
    const double setup_s = static_cast<double>(mono_ns() - o.t0_ns) / 1e9;

    load.run_until(mono_ns() + kWarmupNs);
    load.drain();
    load.take_histograms(r, "set-up and warm-up");

    const int k = slice_count(o);
    const int traced_from = o.trace ? k / 2 : k;
    std::vector<Slice> slices;
    icilk::load::Histogram all, traced;
    std::vector<icilk::load::Histogram> per_op(kEmailOpCount);
    CoreSnap c0;
    for (int j = 0; j < k; ++j) {
      if (j == traced_from) {
        c0 = core_snap(rt);
        rt.trace_sink().set_enabled(true);
        load.set_spans(&spans);
      }
      SliceClock clock(load.wait_ns());
      load.run_until(clock.start_ns + kSliceNs);
      load.drain();
      const std::vector<icilk::load::Histogram> h = load.take_histograms(r, "slice");
      icilk::load::Histogram slice;
      for (int i = 0; i < kEmailOpCount; ++i) {
        const auto& hi = h[static_cast<std::size_t>(i)];
        slice.merge(hi);
        all.merge(hi);
        if (j >= traced_from) {
          traced.merge(hi);
          per_op[static_cast<std::size_t>(i)].merge(hi);
        }
      }
      slices.push_back(clock.finish(load.wait_ns(), slice.count(), summarize(slice)));
    }
    const CoreSnap c1 = core_snap(rt);
    rt.trace_sink().set_enabled(false);
    load.set_spans(nullptr);

    // ---- checks on the program's outputs ----
    std::uint64_t expect_msgs = 0;
    for (const std::uint64_t s : load.sends()) {
      expect_msgs += std::min<std::uint64_t>(kCap, s);
    }
    r.check(srv.total_messages() == expect_msgs,
            "mailboxes hold " + std::to_string(srv.total_messages()) +
                " messages, expected " + std::to_string(expect_msgs));
    const std::vector<std::string> bodies = sample_bodies(o.seed, 16);
    std::vector<std::string> packed;
    for (const auto& b : bodies) {
      packed.push_back(icilk::apps::lz_compress(b));
      std::string back;
      r.check(icilk::apps::lz_decompress(packed.back(), back) && back == b,
              "lz_decompress(lz_compress(b)) != b");
    }
    check_time_accounting(r, rt, rt.stats_snapshot(),
                          static_cast<double>(mono_ns() - t_build) / 1e9);

    if (!o.trace) {
      add_end_to_end(r, setup_s, slices, summarize(all), "email");
    } else {
      const double ops = add_traced(r, slices, traced_from, summarize(traced));
      add_core_metrics(r, c0, c1, ops);
      static const char* kP50[] = {"email.send_p50_us", "email.sort_p50_us",
                                   "email.compress_p50_us", "email.print_p50_us"};
      for (int i = 0; i < kEmailOpCount; ++i) {
        const auto& h = per_op[static_cast<std::size_t>(i)];
        r.add(kP50[i], static_cast<double>(h.percentile_ns(0.5)) / 1e3, "us");
      }

      // Priced calls, on the now idle runtime and the codec.
      r.add("fiber.switch_ns", price_fiber_switch_ns(spans), "ns");
      // Spawn and get are priced on a private one-worker runtime, so the
      // price is the operation itself and not idle thieves stealing each
      // continuation.
      icilk::RuntimeConfig one;
      one.num_workers = 1;
      one.num_io_threads = 0;
      icilk::Runtime solo(one, icilk::make_scheduler("prompt"));
      double spawn_ns = 0, get_ns = 0;
      solo.submit(0, [&] {
          spawn_ns = price_ns(spans, "core.spawn_sync", 100000, [](std::uint64_t) {
            icilk::spawn([] {});
            icilk::sync();
          });
          auto f = icilk::fut_create([] {});
          f.get();
          get_ns = price_ns(spans, "core.get_ready", 1000000,
                            [&](std::uint64_t) { f.get(); });
        }).get();
      r.add("core.spawn_sync_ns", spawn_ns, "ns");
      r.add("core.get_ready_ns", get_ns, "ns");
      r.add("core.submit_get_us",
            price_ns(spans, "core.submit_get", 5000,
                     [&](std::uint64_t) { rt.submit(0, [] {}).get(); }) / 1e3,
            "us");
      std::uint64_t sink = 0;
      r.add("email.compress_us",
            price_ns(spans, "email.compress", 400, [&](std::uint64_t i) {
              sink += icilk::apps::lz_compress(bodies[i % bodies.size()]).size();
            }) / 1e3,
            "us");
      std::string out;
      r.add("email.decompress_us",
            price_ns(spans, "email.decompress", 2000, [&](std::uint64_t i) {
              icilk::apps::lz_decompress(packed[i % packed.size()], out);
              sink += out.size();
            }) / 1e3,
            "us");
      g_sink = sink;
      write_traces("email", spans, rt);
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("email: ") + e.what());
  }
  r.attempted = load.injected();
  return 0;
}

}  // namespace perfbench
