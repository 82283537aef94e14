// The memcached TEXT protocol: incremental request parsing and response
// formatting, plus the command executor shared by BOTH server frontends.
//
// This split is the heart of the porting story in Section 3: the pthread
// frontend drives the parser from event callbacks (the request state
// machine re-entered on every readiness event), while the I-Cilk frontend
// drives the same parser from straight-line code over I/O futures. Command
// semantics live in execute() so the frontends differ only in I/O style.
//
// Supported commands (the production text protocol subset):
//   get/gets <k>...            retrieval (gets includes the CAS id)
//   set/add/replace/append/prepend <k> <flags> <exptime> <bytes> [noreply]
//   cas <k> <flags> <exptime> <bytes> <casid> [noreply]
//   delete <k> [noreply]       incr/decr <k> <delta> [noreply]
//   touch <k> <exptime> [noreply]
//   stats | flush_all | version | quit
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kv/response.hpp"
#include "kv/store.hpp"

namespace icilk::kv {

enum class Verb {
  Get,
  Gets,
  Set,
  Add,
  Replace,
  Append,
  Prepend,
  Cas,
  Delete,
  Incr,
  Decr,
  Touch,
  Stats,
  FlushAll,
  Version,
  Quit,
  Bad,  ///< parse error; `error` holds the CLIENT_ERROR text
};

struct Request {
  Verb verb = Verb::Bad;
  std::vector<std::string> keys;  // get/gets may carry several
  std::uint32_t flags = 0;
  double exptime_s = 0;
  std::uint64_t cas = 0;
  std::uint64_t delta = 0;
  std::string data;  // value payload for storage commands
  bool noreply = false;
  std::string error;
  bool fatal = false;  ///< Bad that closes the connection (line too long)
};

/// Incremental parser: feed bytes as they arrive, pull complete requests.
/// Storage commands span a command line plus a <bytes>+CRLF data block;
/// next() returns false until the full request has arrived.
class RequestParser {
 public:
  /// Longest command line accepted (a storage command's data block is
  /// not a line). Past it, with or without a CRLF yet, next() drops the
  /// buffered bytes and yields a fatal Bad: `CLIENT_ERROR line too long`,
  /// then the connection closes, as memcached does.
  static constexpr std::size_t kMaxLineBytes = 8192;

  /// Longest key accepted (memcached's KEY_MAX_LENGTH). A longer key makes
  /// the command a Bad, `CLIENT_ERROR bad command line format`; for a
  /// storage command that Bad is fatal, so its data block is never read.
  static constexpr std::size_t kMaxKeyBytes = 250;

  /// Appends raw bytes from the connection.
  void feed(const char* data, std::size_t len) { buf_.append(data, len); }
  void feed(std::string_view s) { buf_.append(s); }

  /// Extracts the next complete request. Returns false if more bytes are
  /// needed. A malformed command yields verb == Bad (connection decides
  /// whether to continue or close).
  bool next(Request& out);

  /// Bytes buffered but not yet consumed (for tests / flow control).
  std::size_t pending_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  bool take_line(std::string_view& line);
  void compact();

  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t scan_ = 0;  ///< buf_ end at the last CRLF search that failed

  // storage-command continuation state (line parsed, awaiting data block)
  bool awaiting_data_ = false;
  Request pending_;
  std::size_t data_len_ = 0;
};

/// Executes one request against the store, appending the protocol response
/// to `out`. Returns false when the connection should close (quit / fatal
/// protocol error). `server_stats_extra` (optional) appends frontend stats
/// lines into a `stats` reply.
bool execute(const Request& req, Store& store, std::string& out,
             const std::string& server_stats_extra = {});

/// Same semantics into a vectored-write Response sink (kv/response.hpp):
/// large GET values are spliced by move instead of copied into the text.
bool execute(const Request& req, Store& store, Response& out,
             const std::string& server_stats_extra = {});

}  // namespace icilk::kv
