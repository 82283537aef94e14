#include "apps/email/email_server.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>

#include "apps/email/codec.hpp"
#include "concurrent/rng.hpp"
#include "core/api.hpp"

namespace icilk::apps {

const char* email_op_name(EmailOp op) {
  switch (op) {
    case EmailOp::Send:
      return "send";
    case EmailOp::Sort:
      return "sort";
    case EmailOp::Compress:
      return "comp";
    case EmailOp::Print:
      return "print";
  }
  return "?";
}

EmailServer::EmailServer(const Config& cfg, std::unique_ptr<Scheduler> sched)
    : cfg_(cfg),
      rt_(std::make_unique<Runtime>(
          cfg.rt, sched != nullptr ? std::move(sched)
                                   : make_scheduler_or_default())) {
  boxes_.reserve(static_cast<std::size_t>(cfg_.num_users));
  for (int i = 0; i < cfg_.num_users; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
  if (cfg_.metrics_port >= 0) {
    net::MetricsHttpServer::Config mc;
    mc.port = static_cast<std::uint16_t>(cfg_.metrics_port);
    metrics_http_ =
        std::make_unique<net::MetricsHttpServer>(*rt_, nullptr, mc);
  }
}

EmailServer::~EmailServer() {
  drain();
  metrics_http_.reset();  // before the runtime: its tasks run inside rt_
  rt_->shutdown();
}

int EmailServer::metrics_port() const noexcept {
  return metrics_http_ ? metrics_http_->port() : 0;
}

Priority EmailServer::priority_of(EmailOp op) const {
  switch (op) {
    case EmailOp::Send:
      return cfg_.send_priority;
    case EmailOp::Sort:
      return cfg_.sort_priority;
    case EmailOp::Compress:
      return cfg_.compress_priority;
    case EmailOp::Print:
      return cfg_.print_priority;
  }
  return 0;
}

void EmailServer::inject(EmailOp op, int user, std::uint64_t arrival_ns) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const std::uint64_t seed =
      op_seed_.fetch_add(1, std::memory_order_relaxed) + cfg_.seed;
  rt_->submit(priority_of(op), [this, op, user, arrival_ns, seed] {
    // Attribute from the open-loop arrival: scheduler queueing under
    // overload lands in the "queueing" phase, matching what hist_ sees.
    rt_->req_begin(arrival_ns);
    switch (op) {
      case EmailOp::Send:
        op_send(user, seed);
        break;
      case EmailOp::Sort:
        op_sort(user);
        break;
      case EmailOp::Compress:
        op_compress(user);
        break;
      case EmailOp::Print:
        op_print(user);
        break;
    }
    rt_->req_end();
    hist_[static_cast<int>(op)].record(now_ns() - arrival_ns);
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void EmailServer::drain() {
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t EmailServer::total_messages() const {
  std::size_t n = 0;
  for (const auto& b : boxes_) {
    LockGuard<SpinLock> g(b->mu);
    n += b->msgs.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

std::string EmailServer::make_body(std::uint64_t seed) const {
  // Compressible prose: random words from a small lexicon.
  static const char* kWords[] = {
      "the",     "scheduler", "deque",   "priority", "latency",  "worker",
      "steal",   "resume",    "suspend", "request",  "response", "aging",
      "prompt",  "bitfield",  "queue",   "mug",      "email",    "server",
      "message", "compress"};
  Xoshiro256 rng(seed);
  std::string body;
  body.reserve(static_cast<std::size_t>(cfg_.body_bytes) + 16);
  while (body.size() < static_cast<std::size_t>(cfg_.body_bytes)) {
    body += kWords[rng.bounded(std::size(kWords))];
    body += ' ';
  }
  body.resize(static_cast<std::size_t>(cfg_.body_bytes));
  return body;
}

void EmailServer::op_send(int user, std::uint64_t op_seed) {
  Message m;
  m.body = make_body(op_seed);
  // Subject = cheap digest of the body (gives sort a meaningful key).
  std::uint32_t subject = 2166136261u;
  for (const char c : m.body) {
    subject = (subject ^ static_cast<unsigned char>(c)) * 16777619u;
  }
  m.subject = subject;
  Mailbox& box = *boxes_[static_cast<std::size_t>(user)];
  LockGuard<SpinLock> g(box.mu);
  m.id = box.next_id++;
  if (box.msgs.size() >= static_cast<std::size_t>(cfg_.max_mailbox)) {
    box.msgs.erase(box.msgs.begin());  // drop oldest
  }
  box.msgs.push_back(std::move(m));
}

void EmailServer::op_sort(int user) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(user)];
  LockGuard<SpinLock> g(box.mu);
  std::stable_sort(box.msgs.begin(), box.msgs.end(),
                   [](const Message& a, const Message& b) {
                     return a.subject < b.subject ||
                            (a.subject == b.subject && a.id < b.id);
                   });
  std::uint64_t chk = 0;
  for (const auto& m : box.msgs) chk = chk * 33 + m.subject;
  sink_.fetch_add(chk, std::memory_order_relaxed);
}

void EmailServer::op_compress(int user) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(user)];
  // Snapshot candidates under the lock; compress outside it (CPU-heavy);
  // write back under the lock with id checks.
  std::vector<std::pair<std::uint64_t, std::string>> todo;
  {
    LockGuard<SpinLock> g(box.mu);
    for (auto& m : box.msgs) {
      if (!m.compressed) {
        todo.emplace_back(m.id, m.body);
        if (static_cast<int>(todo.size()) >= cfg_.batch) break;
      }
    }
  }
  for (auto& [id, body] : todo) {
    std::string packed = lz_compress(body);
    LockGuard<SpinLock> g(box.mu);
    for (auto& m : box.msgs) {
      if (m.id == id && !m.compressed) {
        m.body = std::move(packed);
        m.compressed = true;
        break;
      }
    }
  }
}

void EmailServer::op_print(int user) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(user)];
  std::vector<std::string> packed;
  {
    LockGuard<SpinLock> g(box.mu);
    for (auto& m : box.msgs) {
      if (m.compressed) {
        packed.push_back(m.body);
        if (static_cast<int>(packed.size()) >= cfg_.batch) break;
      }
    }
  }
  constexpr std::string_view kHead = "From: user\nBody: ";
  constexpr std::string_view kTail = "\n--\n";
  std::string out, rendered;
  // Bodies decompress to body_bytes: one allocation renders the batch.
  const std::size_t per_msg =
      kHead.size() + static_cast<std::size_t>(cfg_.body_bytes) + kTail.size();
  rendered.reserve(packed.size() * per_msg);
  for (const auto& p : packed) {
    if (lz_decompress(p, out)) {
      rendered += kHead;
      rendered += out;
      rendered += kTail;
    }
  }
  sink_.fetch_add(rendered.size(), std::memory_order_relaxed);
}

}  // namespace icilk::apps
