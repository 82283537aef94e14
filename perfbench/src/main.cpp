// End-to-end benchmark of the Prompt I-Cilk servers: minicached driven
// over TCP (kv-small, kv-large) and the email server driven in process
// (email), each in a closed loop from this process's main thread, with
// every output checked against the benchmark's own model.
//
//   perfbench --workload kv-small|kv-large|email --seed N --seconds S
//             --trace 0|1 [--t0-ns NS]
//
// Prints a one-line JSON result last on stdout; a human summary goes to
// stderr. Traced runs write their Chrome traces to .bench_out/ under the
// working directory. Exits non-zero when a correctness check fails or an
// operation failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv-small|kv-large|email "
               "--seed N --seconds S --trace 0|1 [--t0-ns NS]\n");
}

void print_json(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.checks.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.t0_ns = perfbench::mono_ns();
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      o.workload = v;
      have_workload = true;
    } else if (std::strcmp(k, "--seed") == 0) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      o.seconds = std::atof(v);
    } else if (std::strcmp(k, "--trace") == 0) {
      o.trace = std::atoi(v) != 0;
    } else if (std::strcmp(k, "--t0-ns") == 0) {
      o.t0_ns = std::strtoull(v, nullptr, 10);
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !(o.seconds > 0)) {
    usage();
    return 2;
  }

  perfbench::Result r;
  int rc = 0;
  if (o.workload == "kv-small") {
    rc = perfbench::run_kv(o, false, r);
  } else if (o.workload == "kv-large") {
    rc = perfbench::run_kv(o, true, r);
  } else if (o.workload == "email") {
    rc = perfbench::run_email(o, r);
  } else {
    usage();
    return 2;
  }
  if (rc != 0) return rc;
  r.check(r.failed == 0, std::to_string(r.failed) + " of " +
                             std::to_string(r.attempted) +
                             " operations failed");
  for (const auto& c : r.checks) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", c.c_str());
  }
  print_json(r);
  return r.checks.empty() ? 0 : 1;
}
