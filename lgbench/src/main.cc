// lgbench — run one workload and print its result.
//
//   lgbench --workload large-cluster|paper-grid --seed N
//           --seconds S --trace 0|1 [--scale full|toy] [--root DIR]
//           [--out-dir DIR] [--commit SHA] [--src-digest HEX]
//
// Output: a stamp line, the workload's headline numbers, the digest of the
// simulated statistics, the output checks, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exit 0 when a result was printed, 2 on a usage error.

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef LGBENCH_COMPILER
#define LGBENCH_COMPILER "unknown"
#endif
#ifndef LGBENCH_BUILD_TYPE
#define LGBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lgbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "lgbench: %s\nusage: lgbench --workload "
               "large-cluster|paper-grid --seed N --seconds S "
               "--trace 0|1 [--scale full|toy] [--root DIR] [--out-dir DIR] "
               "[--commit SHA] [--src-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, v);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(arg, v));
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--scale") {
      if (v != "full" && v != "toy") usage("--scale expects full or toy");
      o.scale = v == "toy" ? Scale::kToy : Scale::kFull;
    } else if (arg == "--root") {
      o.root = v;
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else if (arg == "--commit") {
      o.commit = v;
    } else if (arg == "--src-digest") {
      o.src_digest = v;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return o;
}

std::string stamp(const Options& o) {
  utsname u{};
  uname(&u);
  return std::string("host=") + u.nodename + " kernel=" + u.sysname + "-" +
         u.release + " arch=" + u.machine +
         " cores=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=" + LGBENCH_COMPILER + " build=" + LGBENCH_BUILD_TYPE +
         " commit=" + o.commit + " src=" + o.src_digest;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  void (*workload)(const Options&, Tracer&, Result&) = nullptr;
  if (o.workload == "large-cluster") workload = run_large_cluster;
  if (o.workload == "paper-grid") workload = run_paper_grid;
  if (workload == nullptr) usage("unknown workload '" + o.workload + "'");
  if (!std::filesystem::is_directory(o.root + "/scenarios")) {
    usage("no scenarios/ under --root '" + o.root + "'");
  }

  const std::string stamp_line = stamp(o);
  std::printf("lgbench: workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              o.scale == Scale::kToy ? "toy" : "full");
  std::printf("stamp: %s\n", stamp_line.c_str());
  std::fflush(stdout);

  Tracer tr(o.trace);
  Result r;
  {
    auto root = tr.open(o.workload);
    try {
      workload(o, tr, r);
    } catch (const std::exception& e) {
      r.fail(std::string("workload threw: ") + e.what());
      if (r.attempted == 0) r.attempted = 1;
      r.failed = std::max<std::int64_t>(r.failed, 1);
    }
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (r.attempted == 0) r.attempted = 1;  // a run that stopped before its job

  const double failed_share =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("report:");
  for (const auto& [name, m] : r.report) {
    std::printf(" %s=%.6g %s;", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(" failed_share=%.6g share; peak_rss_mb=%.6g MB\n", failed_share,
              r.metrics["peak_rss_mb"].value);
  std::printf("digest: %016llx %s\n",
              static_cast<unsigned long long>(r.digest.value()),
              r.digest.text().c_str());

  // Emit exactly the catalog of this mode; a missing metric fails the run.
  const auto& catalog = o.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const auto& [name, unit] : catalog) {
    const auto it = r.metrics.find(name);
    double v = 0;
    if (it == r.metrics.end()) {
      r.fail("metric " + name + " was not measured");
    } else if (it->second.unit != unit) {
      r.fail("metric " + name + " has unit " + it->second.unit + ", not " +
             unit);
    } else if (!std::isfinite(it->second.value)) {
      r.fail("metric " + name + " is not finite");
    } else {
      v = it->second.value;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + unit + "\"}";
  }

  if (o.trace) {
    std::printf("self time by span:");
    for (const auto& [name, s] : tr.self_times()) {
      std::printf(" %s=%.3fs", name.c_str(), s);
    }
    std::printf("\n");
    if (!o.out_dir.empty()) {
      std::filesystem::create_directories(o.out_dir);
      const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                               std::to_string(o.seed) + ".spans.jsonl";
      const std::string header = "{\"workload\": \"" + o.workload +
                                 "\", \"seed\": " + std::to_string(o.seed) +
                                 ", \"stamp\": \"" + stamp_line + "\"}";
      if (tr.write(path, header)) {
        std::printf("spans: %s\n", path.c_str());
      } else {
        r.fail("cannot write spans to " + path);
      }
    }
  }

  for (const std::string& e : r.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  if (r.errors.empty()) std::printf("checks: all outputs correct\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      r.errors.empty() ? "true" : "false",
      static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
      metrics.c_str());
  return 0;
}
