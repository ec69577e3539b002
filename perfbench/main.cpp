// End-to-end benchmark of the four paths users run: solve, churn, serve
// and dist. One process runs one workload from a seed.
//
//   mcds_perfbench --workload <solve|churn|serve|dist> --seed <n>
//                  --seconds <s> --trace <0|1> [--git-sha <sha>]
//                  [--spans-out <file>]
//
// An untraced run (--trace 0) measures the end-to-end metrics and validates
// every output. A traced run (--trace 1) calls each layer's public parts
// inside spans and measures the per-layer metrics. The last line of stdout
// is one JSON object holding every metric measured; the exit code is
// non-zero when any check failed. perfbench/run.py builds this binary,
// runs it and reduces that line to the metrics BENCHMARK.json lists.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace pb = mcds::perfbench;

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage(const char* why) {
  std::cerr << "mcds_perfbench: " << why
            << "\nusage: mcds_perfbench --workload <solve|churn|serve|dist> "
               "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--spans-out <file>]\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
      const std::string val = argv[++i];
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
        have_seconds = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace must be 0 or 1");
        o.trace = val == "1";
        have_trace = true;
      } else if (key == "--git-sha") {
        git_sha = val;
      } else if (key == "--spans-out") {
        o.spans_out = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }
  if (!have_seed || !have_seconds || !have_trace || o.workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }
  if (!kOptimized) {
    std::cerr << "mcds_perfbench: refusing to run: this is not an optimized "
                 "build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
  }

  std::cout << "perfbench: workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE << " git=" << git_sha
            << std::endl;

  const auto steal0 = pb::cpu_steal_ticks();
  pb::Report r;
  try {
    if (o.workload == "solve") {
      r = pb::run_solve(o);
    } else if (o.workload == "churn") {
      r = pb::run_churn(o);
    } else if (o.workload == "serve") {
      r = pb::run_serve(o);
    } else if (o.workload == "dist") {
      r = pb::run_dist(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "mcds_perfbench: " << o.workload << " threw: " << e.what()
              << "\n";
    return 3;
  }

  r.add("peak_rss_mb", pb::peak_rss_mb(), "MB");
  r.add("fail_frac",
        static_cast<double>(r.failed) /
            static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
        "ratio");
  const auto steal1 = pb::cpu_steal_ticks();
  if (steal1.second > steal0.second) {
    r.notes.push_back(
        "host steal during the run: " +
        std::to_string(100.0 * static_cast<double>(steal1.first - steal0.first) /
                       static_cast<double>(steal1.second - steal0.second)) +
        "% of CPU time");
  }
  for (const auto& note : r.notes) std::cout << "  " << note << "\n";
  for (const auto& m : r.metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
    if (!std::isfinite(m.value)) r.fail(m.name + " is not finite");
  }
  if (!r.correct) std::cout << "  FAILED: " << r.error << "\n";

  // Everything measured, as one JSON line; run.py picks the metrics
  // BENCHMARK.json names for the mode.
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const pb::Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return r.correct ? 0 : 1;
}
