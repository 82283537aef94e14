#include "obs/flightrec.hpp"

#include <unistd.h>

#include <cstdio>

#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace icilk::obs {

std::string build_flags_string() {
  std::string out;
  auto flag = [&](const char* name, bool on) {
    if (!out.empty()) out += ' ';
    out += name;
    out += on ? "=ON" : "=OFF";
  };
  flag("obs", compiled_in());
#if defined(ICILK_INJECT_ENABLED) && ICILK_INJECT_ENABLED == 0
  flag("inject", false);
#else
  flag("inject", true);
#endif
#if defined(__SANITIZE_THREAD__)
  out += " sanitize=thread";
#elif defined(__SANITIZE_ADDRESS__)
  out += " sanitize=address";
#else
  out += " sanitize=none";
#endif
#if defined(NDEBUG)
  out += " assertions=OFF";
#else
  out += " assertions=ON";
#endif
  return out;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

void write_sample(JsonWriter& w, const WdSample& s) {
  auto o = w.object();
  w.field("t_ns", s.t_ns).hex("bitfield", s.bitfield);
  w.field("num_levels", s.num_levels).field("num_workers", s.num_workers);
  w.field("sleepers", s.sleepers).field("wakeups", s.wakeups);
  w.field("zero_transitions", s.zero_transitions);
  w.field("tasks_run", s.tasks_run).field("suspended", s.suspended);
  w.field("resumable", s.resumable);
  {
    auto a = w.object("susp_age_ns");
    w.field("p50", s.susp_age_p50_ns).field("p99", s.susp_age_p99_ns);
    w.field("max", s.susp_age_max_ns);
  }
  {
    auto a = w.object("res_age_ns");
    w.field("p50", s.res_age_p50_ns).field("p99", s.res_age_p99_ns);
    w.field("max", s.res_age_max_ns);
  }
  {
    auto r = w.object("res_oldest");
    w.field("level", s.res_oldest_level).field("age_ns", s.res_oldest_age_ns);
  }
  w.field("io_armed", s.io_armed).field("timers_pending", s.timers_pending);
  {
    auto workers = w.array("workers");
    for (int i = 0; i < s.num_workers && i < WdSample::kMaxWorkers; ++i) {
      const auto st = static_cast<WdWorkerState>(s.worker_state[i]);
      auto wk = w.object();
      w.field("state", wd_worker_state_name(st));
      w.field("level", static_cast<int>(s.worker_level[i]));
    }
  }
  auto levels = w.object("levels");
  for (int p = 0; p < s.num_levels && p < WdSample::kMaxLevels; ++p) {
    if (s.pool_depth[p] == 0 && s.mug_depth[p] == 0 && s.census[p] == 0) {
      continue;  // most of the 64 levels are silent; keep bundles small
    }
    auto lv = w.object(std::to_string(p));
    w.field("pool", s.pool_depth[p]).field("mug", s.mug_depth[p]);
    w.field("census", s.census[p]);
  }
}

}  // namespace

std::string flight_bundle_json(const FlightBundle& b) {
  return json_object([&b](JsonWriter& w) {
    w.field("flight_bundle", 1).field("reason", b.reason);
    w.field("detail", b.detail).field("build_flags", b.build_flags);
    w.field("scheduler", b.scheduler).field("pid", ::getpid());
    w.field("inject_seed", b.inject_seed);
    w.field("bundles_written", b.bundles_written);
    {
      auto trips = w.object("trips");
      for (int d = 0; d < kWdDetectorCount; ++d) {
        w.field(wd_detector_name(static_cast<WdDetector>(d)),
                b.trip_counts[d]);
      }
    }
    write_sample(w.key("trigger"), b.trigger);
    {
      auto samples = w.array("samples");
      for (const WdSample& s : b.history) write_sample(w, s);
    }
    if (b.metrics != nullptr) {
      // latency_json carries the per-level phase histograms and the worst-K
      // request timelines; the flat STAT text carries every counter.
      w.raw("latency", latency_json(*b.metrics));
      w.raw("parallelism", parallelism_json(*b.metrics));
      w.field("metrics_stat", b.metrics->text("", "\n"));
    }
    if (b.trace != nullptr) {
      // An embedded Chrome trace_event document — extract the "trace"
      // member and load it into chrome://tracing / Perfetto as-is.
      w.raw("trace", b.trace->chrome_trace_json());
    }
    if (b.timeseries != nullptr) {
      // The windowed epoch ring (obs/timeseries.hpp): the seconds of
      // per-epoch latency/counter history preceding the trip.
      w.raw("timeseries", b.timeseries->json());
    }
  }) + '\n';
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ParsedFlightBundle parse_flight_bundle(const std::string& text) {
  using Type = json::Value::Type;
  ParsedFlightBundle out;
  json::Value doc;
  if (!json::parse(text, doc, &out.error)) return out;
  if (doc.type != Type::kObject) {
    out.error = "expected top-level object";
    return out;
  }
  for (const auto& [k, v] : doc.members) {
    Type want = v.type;  // members whose type this reader does not check
    if (std::string* dst = k == "reason"        ? &out.reason
                           : k == "detail"      ? &out.detail
                           : k == "build_flags" ? &out.build_flags
                           : k == "scheduler"   ? &out.scheduler
                                                : nullptr) {
      want = Type::kString;
      *dst = v.str;
    } else if (k == "flight_bundle" || k == "inject_seed") {
      want = Type::kNumber;
      if (k == "inject_seed") out.inject_seed = v.as_u64();
    } else if (k == "trigger") {
      want = Type::kObject;
      if (const json::Value* t = v.find("t_ns")) out.trigger_t_ns = t->as_u64();
    } else if (k == "samples") {
      want = Type::kArray;
      out.num_samples = v.items.size();
    } else if (k == "latency" || k == "metrics_stat") {
      out.has_metrics = true;
    } else if (k == "trace") {
      out.has_trace = true;
    } else if (k == "timeseries") {
      out.has_timeseries = true;
    } else if (k == "parallelism") {
      out.has_parallelism = true;
    } else if (k != "pid" && k != "bundles_written" && k != "trips") {
      // Forward compatibility: a bundle from a newer writer may carry
      // members this reader predates. Count each and warn so the skew is
      // visible in tool logs.
      ++out.unknown_keys;
      std::fprintf(stderr,
                   "flightrec: skipping unknown bundle member \"%s\" "
                   "(reader older than writer?)\n",
                   k.c_str());
    }
    if (v.type != want) {
      out.error = "unexpected type for \"" + k + "\"";
      return out;
    }
  }
  const json::Value* magic = doc.find("flight_bundle");
  if (magic == nullptr || magic->num != 1) {
    out.error = "missing flight_bundle magic";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace icilk::obs
