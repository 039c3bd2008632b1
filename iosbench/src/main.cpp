// iosbench: runs one benchmark workload in this process and prints its
// result as one JSON line.
//
//   iosbench --workload search_cold|search_warm|serve_daemon --seed N
//            --seconds S --trace 0|1 [--setup-only] [--out-dir DIR]
//
// Set-up ends with the line "IOSBENCH_READY" on stdout, so a parent can time
// set-up from process start. The last line is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// with the end-to-end metrics untraced (--trace 0) or the per-layer
// breakdown (--trace 1). Any failed check is printed to stderr and makes the
// exit code 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace iosbench {

void signal_ready() {
  std::fputs("IOSBENCH_READY\n", stdout);
  std::fflush(stdout);
}

void write_trace(const RunOptions& options, const Tracer& tracer) {
  tracer.write_chrome_trace(options.out_dir + "/" + options.workload + "-seed" +
                            std::to_string(options.seed) + ".trace.json");
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "iosbench: %s\nusage: iosbench --workload search_cold|search_warm|serve_daemon "
               "--seed N --seconds S --trace 0|1 [--setup-only] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace iosbench

int main(int argc, char** argv) {
  using namespace iosbench;
  const RunOptions options = parse_args(argc, argv);
  Report report;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "search_cold") {
      report = run_search_cold(options);
    } else if (options.workload == "search_warm") {
      report = run_search_warm(options);
    } else if (options.workload == "serve_daemon") {
      report = run_serve_daemon(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iosbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "iosbench: check failed: %s\n", error.c_str());
  }
  if (options.setup_only) return report.correct ? 0 : 1;

  if (options.trace && report.attempted > 0) {
    report.set("fail_ratio",
               static_cast<double>(report.failed) / static_cast<double>(report.attempted), "1");
  }
  ios::JsonValue metrics = ios::JsonValue::object();
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "iosbench: check failed: metric %s is not finite\n", name.c_str());
      report.correct = false;
      continue;
    }
    ios::JsonValue m = ios::JsonValue::object();
    m.set("value", metric.value);
    m.set("unit", metric.unit);
    metrics.set(name, std::move(m));
  }
  ios::JsonValue out = ios::JsonValue::object();
  out.set("correct", report.correct);
  out.set("attempted", report.attempted);
  out.set("failed", report.failed);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return report.correct ? 0 : 1;
}
