// Flight-recorder bundles: the post-mortem artifact the watchdog writes
// when an invariant detector trips (or on demand via SIGUSR2 /
// `stats icilk dump`).
//
// A bundle is ONE self-contained JSON document holding everything needed
// to replay and diagnose the alarm:
//   * provenance: build flags, the active fault-injection seed, pid;
//   * the trigger: which detector fired, a human-readable detail line,
//     and the exact sample that tripped it;
//   * the sampler's retained history ring (oldest first);
//   * the full metrics registry (latency JSON with worst-K request
//     timelines, plus the flat stats text);
//   * the drained trace rings as an embedded Chrome trace_event document
//     (load the "trace" member straight into chrome://tracing).
//
// parse_flight_bundle() is the matching reader: it validates the whole
// document with json::parse (obs/json.hpp) and pulls the fields tests and
// tooling care about — the round-trip contract in
// tests/obs/test_watchdog.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/watchdog.hpp"

namespace icilk::obs {

class TimeSeries;

/// "trace=ON inject=OFF ..." — the compile-time feature flags of THIS
/// binary, stamped into bundles so a dump from an OFF build can't be
/// mistaken for one with full hooks.
std::string build_flags_string();

/// Writer-side view of one bundle. Pointers are borrowed for the duration
/// of the write call only.
struct FlightBundle {
  std::string reason;  ///< detector name, "manual", "sigusr2", ...
  std::string detail;  ///< human detail line from the trip site
  std::string build_flags;
  std::string scheduler;  ///< active scheduling policy name
  std::uint64_t inject_seed = 0;  ///< active src/inject seed (0 = none)
  WdSample trigger;               ///< the tripping snapshot
  std::vector<WdSample> history;  ///< sampler ring, oldest first
  std::uint64_t trip_counts[kWdDetectorCount] = {};
  std::uint64_t bundles_written = 0;
  const MetricsRegistry* metrics = nullptr;  ///< optional
  const TraceSink* trace = nullptr;          ///< optional
  const TimeSeries* timeseries = nullptr;    ///< optional windowed history
};

/// Serializes the bundle as one JSON document.
std::string flight_bundle_json(const FlightBundle& b);

/// What the reader recovers (plus full-document validation).
struct ParsedFlightBundle {
  bool ok = false;
  std::string error;  ///< parse failure description when !ok

  std::string reason;
  std::string detail;
  std::string build_flags;
  std::string scheduler;
  std::uint64_t inject_seed = 0;
  std::uint64_t trigger_t_ns = 0;
  std::size_t num_samples = 0;   ///< history length
  bool has_metrics = false;      ///< latency/metrics sections present
  bool has_trace = false;        ///< embedded Chrome trace present
  bool has_timeseries = false;   ///< embedded windowed epoch ring present
  bool has_parallelism = false;  ///< embedded work/span document present

  /// Top-level members this reader did not recognize. A bundle from a
  /// NEWER writer parses fine (each unknown value is validated and
  /// skipped, with one warning line on stderr); this count lets tooling
  /// notice it is behind.
  std::size_t unknown_keys = 0;
};

/// Parses (and fully validates the syntax of) a bundle produced by
/// flight_bundle_json.
ParsedFlightBundle parse_flight_bundle(const std::string& json);

}  // namespace icilk::obs
