#include "kv/protocol.hpp"

#include <charconv>

namespace icilk::kv {

namespace {

constexpr std::string_view kCrlf = "\r\n";

/// Splits a command line into whitespace-separated tokens.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

template <typename T>
bool parse_num(std::string_view s, T& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
  // exptime is an integer in the protocol; double here so tests can use
  // sub-second TTLs through the same path.
  std::int64_t v = 0;
  if (parse_num(s, v)) {
    out = static_cast<double>(v);
    return true;
  }
  return false;
}

Verb verb_of(std::string_view tok) {
  if (tok == "get") return Verb::Get;
  if (tok == "gets") return Verb::Gets;
  if (tok == "set") return Verb::Set;
  if (tok == "add") return Verb::Add;
  if (tok == "replace") return Verb::Replace;
  if (tok == "append") return Verb::Append;
  if (tok == "prepend") return Verb::Prepend;
  if (tok == "cas") return Verb::Cas;
  if (tok == "delete") return Verb::Delete;
  if (tok == "incr") return Verb::Incr;
  if (tok == "decr") return Verb::Decr;
  if (tok == "touch") return Verb::Touch;
  if (tok == "stats") return Verb::Stats;
  if (tok == "flush_all") return Verb::FlushAll;
  if (tok == "version") return Verb::Version;
  if (tok == "quit") return Verb::Quit;
  return Verb::Bad;
}

Request bad(std::string msg) {
  Request r;
  r.verb = Verb::Bad;
  r.error = std::move(msg);
  return r;
}

bool key_too_long(std::string_view key) {
  return key.size() > RequestParser::kMaxKeyBytes;
}

Request bad_key() { return bad("bad command line format"); }

}  // namespace

bool RequestParser::take_line(std::string_view& line) {
  // Resume where the last failed search stopped, one byte back so a CRLF
  // split across two feeds is still found: each byte is scanned once.
  const std::size_t nl = buf_.find(kCrlf, scan_ > pos_ ? scan_ - 1 : pos_);
  if (nl == std::string::npos) {
    scan_ = buf_.size();
    return false;
  }
  line = std::string_view(buf_).substr(pos_, nl - pos_);
  pos_ = nl + 2;
  return true;
}

void RequestParser::compact() {
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(0, pos_);
    scan_ = scan_ > pos_ ? scan_ - pos_ : 0;
    pos_ = 0;
  }
}

bool RequestParser::next(Request& out) {
  if (awaiting_data_) {
    // Need data_len_ + CRLF bytes of payload.
    if (buf_.size() - pos_ < data_len_ + 2) return false;
    pending_.data.assign(buf_, pos_, data_len_);
    if (buf_.compare(pos_ + data_len_, 2, kCrlf) != 0) {
      out = bad("bad data chunk");
      pos_ += data_len_ + 2;
    } else {
      pos_ += data_len_ + 2;
      out = std::move(pending_);
    }
    awaiting_data_ = false;
    pending_ = Request{};
    compact();
    return true;
  }

  // Compact BEFORE extracting the line: `line` is a view into buf_ and
  // must stay valid through tokenization.
  compact();
  std::string_view line;
  const bool got = take_line(line);
  // Without a CRLF the line holds every pending byte but a trailing '\r',
  // which may yet start the CRLF.
  const std::size_t len =
      got ? line.size()
          : pending_bytes() - (pending_bytes() != 0 && buf_.back() == '\r');
  if (len > kMaxLineBytes) {
    buf_.clear();
    pos_ = scan_ = 0;
    out = bad("line too long");
    out.fatal = true;
    return true;
  }
  if (!got) return false;

  const auto toks = tokenize(line);
  if (toks.empty()) {
    out = bad("empty command");
    return true;
  }
  const Verb v = verb_of(toks[0]);
  Request r;
  r.verb = v;

  switch (v) {
    case Verb::Get:
    case Verb::Gets: {
      if (toks.size() < 2) {
        out = bad("get requires a key");
        return true;
      }
      for (std::size_t i = 1; i < toks.size(); ++i) {
        if (key_too_long(toks[i])) {
          out = bad_key();
          return true;
        }
        r.keys.emplace_back(toks[i]);
      }
      out = std::move(r);
      return true;
    }
    case Verb::Set:
    case Verb::Add:
    case Verb::Replace:
    case Verb::Append:
    case Verb::Prepend:
    case Verb::Cas: {
      const std::size_t base = 5;  // verb key flags exptime bytes
      const std::size_t need = base + (v == Verb::Cas ? 1 : 0);
      if (toks.size() < need) {
        out = bad("bad storage command");
        return true;
      }
      if (key_too_long(toks[1])) {
        // The declared data block follows; close rather than read it.
        out = bad_key();
        out.fatal = true;
        return true;
      }
      r.keys.emplace_back(toks[1]);
      std::uint64_t nbytes = 0;
      if (!parse_num(toks[2], r.flags) ||
          !parse_double(toks[3], r.exptime_s) ||
          !parse_num(toks[4], nbytes) || nbytes > (64u << 20)) {
        out = bad("bad storage parameters");
        return true;
      }
      std::size_t idx = 5;
      if (v == Verb::Cas) {
        if (!parse_num(toks[5], r.cas)) {
          out = bad("bad cas id");
          return true;
        }
        idx = 6;
      }
      if (toks.size() > idx && toks[idx] == "noreply") r.noreply = true;
      // Switch to data-block mode.
      pending_ = std::move(r);
      data_len_ = static_cast<std::size_t>(nbytes);
      awaiting_data_ = true;
      return next(out);  // payload may already be buffered
    }
    case Verb::Delete: {
      if (toks.size() < 2) {
        out = bad("delete requires a key");
        return true;
      }
      if (key_too_long(toks[1])) {
        out = bad_key();
        return true;
      }
      r.keys.emplace_back(toks[1]);
      r.noreply = toks.size() > 2 && toks.back() == "noreply";
      out = std::move(r);
      return true;
    }
    case Verb::Incr:
    case Verb::Decr: {
      if (toks.size() < 3 || !parse_num(toks[2], r.delta)) {
        out = bad("bad counter command");
        return true;
      }
      if (key_too_long(toks[1])) {
        out = bad_key();
        return true;
      }
      r.keys.emplace_back(toks[1]);
      r.noreply = toks.size() > 3 && toks.back() == "noreply";
      out = std::move(r);
      return true;
    }
    case Verb::Touch: {
      if (toks.size() < 3 || !parse_double(toks[2], r.exptime_s)) {
        out = bad("bad touch command");
        return true;
      }
      if (key_too_long(toks[1])) {
        out = bad_key();
        return true;
      }
      r.keys.emplace_back(toks[1]);
      r.noreply = toks.size() > 3 && toks.back() == "noreply";
      out = std::move(r);
      return true;
    }
    case Verb::Stats:
      // `stats [subcommand]` — keep the subcommand tokens so the server
      // can serve scoped stat groups (e.g. "stats icilk").
      for (std::size_t i = 1; i < toks.size(); ++i) {
        r.keys.emplace_back(toks[i]);
      }
      out = std::move(r);
      return true;
    case Verb::FlushAll:
    case Verb::Version:
    case Verb::Quit:
      out = std::move(r);
      return true;
    case Verb::Bad:
      out = bad("unknown command");
      return true;
  }
  out = bad("unreachable");
  return true;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

template <typename Sink>
void reply_store(StoreResult res, bool noreply, Sink& out) {
  if (noreply) return;
  switch (res) {
    case StoreResult::Stored:
      out += "STORED\r\n";
      break;
    case StoreResult::NotStored:
      out += "NOT_STORED\r\n";
      break;
    case StoreResult::Exists:
      out += "EXISTS\r\n";
      break;
    case StoreResult::NotFound:
      out += "NOT_FOUND\r\n";
      break;
  }
}

// The one sink-specific operation: how a GET value payload reaches the
// wire. The string sink copies it into the contiguous response; the
// Response sink splices large values by move (kv/response.hpp) so the
// writev path never copies them.
void append_value(std::string& out, std::string&& v) { out += v; }
void append_value(Response& out, std::string&& v) {
  out.add_value(std::move(v));
}

// Shared executor body — both public overloads instantiate it. `out +=`
// appends text; values go through append_value above.
template <typename Sink>
bool execute_impl(const Request& req, Store& store, Sink& out,
                  const std::string& server_stats_extra) {
  switch (req.verb) {
    case Verb::Get:
    case Verb::Gets: {
      for (const auto& key : req.keys) {
        if (auto r = store.get(key)) {
          out += "VALUE ";
          out += key;
          out += ' ';
          out += std::to_string(r->flags);
          out += ' ';
          out += std::to_string(r->value.size());
          if (req.verb == Verb::Gets) {
            out += ' ';
            out += std::to_string(r->cas);
          }
          out += "\r\n";
          append_value(out, std::move(r->value));
          out += "\r\n";
        }
      }
      out += "END\r\n";
      return true;
    }
    case Verb::Set:
      reply_store(store.set(req.keys[0], req.data, req.flags,
                            ttl_from_seconds(req.exptime_s)),
                  req.noreply, out);
      return true;
    case Verb::Add:
      reply_store(store.add(req.keys[0], req.data, req.flags,
                            ttl_from_seconds(req.exptime_s)),
                  req.noreply, out);
      return true;
    case Verb::Replace:
      reply_store(store.replace(req.keys[0], req.data, req.flags,
                                ttl_from_seconds(req.exptime_s)),
                  req.noreply, out);
      return true;
    case Verb::Append:
      reply_store(store.append(req.keys[0], req.data), req.noreply, out);
      return true;
    case Verb::Prepend:
      reply_store(store.prepend(req.keys[0], req.data), req.noreply, out);
      return true;
    case Verb::Cas:
      reply_store(store.check_and_set(req.keys[0], req.data, req.flags,
                                      ttl_from_seconds(req.exptime_s),
                                      req.cas),
                  req.noreply, out);
      return true;
    case Verb::Delete: {
      const bool ok = store.erase(req.keys[0]);
      if (!req.noreply) out += ok ? "DELETED\r\n" : "NOT_FOUND\r\n";
      return true;
    }
    case Verb::Incr:
    case Verb::Decr: {
      std::uint64_t v = 0;
      const CounterResult res =
          (req.verb == Verb::Incr) ? store.incr(req.keys[0], req.delta, &v)
                                   : store.decr(req.keys[0], req.delta, &v);
      if (!req.noreply) {
        switch (res) {
          case CounterResult::Ok:
            out += std::to_string(v);
            out += "\r\n";
            break;
          case CounterResult::NotFound:
            out += "NOT_FOUND\r\n";
            break;
          case CounterResult::NotNumeric:
            out +=
                "CLIENT_ERROR cannot increment or decrement non-numeric "
                "value\r\n";
            break;
        }
      }
      return true;
    }
    case Verb::Touch: {
      const bool ok =
          store.touch(req.keys[0], ttl_from_seconds(req.exptime_s));
      if (!req.noreply) out += ok ? "TOUCHED\r\n" : "NOT_FOUND\r\n";
      return true;
    }
    case Verb::Stats: {
      const StoreStats s = store.stats();
      auto line = [&out](const char* name, std::uint64_t v) {
        out += "STAT ";
        out += name;
        out += ' ';
        out += std::to_string(v);
        out += "\r\n";
      };
      line("get_hits", s.get_hits);
      line("get_misses", s.get_misses);
      line("cmd_set", s.sets);
      line("delete_hits", s.deletes);
      line("evictions", s.evictions);
      line("expired_unfetched", s.expired_reclaimed);
      line("curr_items", s.curr_items);
      line("bytes", s.bytes);
      out += server_stats_extra;
      out += "END\r\n";
      return true;
    }
    case Verb::FlushAll:
      store.flush_all();
      if (!req.noreply) out += "OK\r\n";
      return true;
    case Verb::Version:
      out += "VERSION 1.0.0-minicached\r\n";
      return true;
    case Verb::Quit:
      return false;
    case Verb::Bad:
      out += "CLIENT_ERROR ";
      out += req.error;
      out += "\r\n";
      return !req.fatal;
  }
  return true;
}

}  // namespace

bool execute(const Request& req, Store& store, std::string& out,
             const std::string& server_stats_extra) {
  return execute_impl(req, store, out, server_stats_extra);
}

bool execute(const Request& req, Store& store, Response& out,
             const std::string& server_stats_extra) {
  return execute_impl(req, store, out, server_stats_extra);
}

}  // namespace icilk::kv
