// perfbench: runs one workload and prints one JSON object on the last line of stdout.
//
//   perfbench --workload <incr1-hot|rubis-b|like-wal|like-open> --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--git-sha SHA] [--plant-wrong-count]
//
// The object holds the correctness verdict, attempted/failed counts, every metric the
// workload computes (name -> value and unit), the per-second commit series and the run's
// facts (CPUs, build type, compiler, git sha). perfbench/run.py builds this binary,
// selects the metrics BENCHMARK.json names and prints the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/cpu.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::putchar('\\');
    }
    std::putchar(ch);
  }
  std::putchar('"');
}

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-sha SHA] [--plant-wrong-count]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      cfg.out_dir = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else if (arg == "--plant-wrong-count") {
      cfg.plant_wrong_count = true;
    } else {
      return Usage();
    }
  }
  if (cfg.seconds <= 0.0) {
    return Usage();
  }
  // Numbers from an unoptimised or assertion-enabled build are not comparable.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool release = build_type == "Release";
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", build_type.c_str());
    return 3;
  }

  Result res;
  if (!RunWorkload(cfg, &res)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return Usage();
  }

  std::printf("{\"workload\": ");
  PrintJsonString(cfg.workload);
  std::printf(", \"seed\": %lu, \"trace\": %d, \"correct\": %s, \"failure\": ", cfg.seed,
              cfg.trace ? 1 : 0, res.correct ? "true" : "false");
  PrintJsonString(res.failure);
  std::printf(", \"attempted\": %lu, \"failed\": %lu, \"spans_written\": %lu",
              res.attempted, res.failed, res.spans_written);
  std::printf(", \"metrics\": {");
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(res.metrics[i].name);
    std::printf(": {\"value\": ");
    PrintNumber(res.metrics[i].value);
    std::printf(", \"unit\": ");
    PrintJsonString(res.metrics[i].unit);
    std::printf("}");
  }
  std::printf("}, \"commits_per_second_series\": [");
  for (std::size_t i = 0; i < res.commits_per_second_series.size(); ++i) {
    std::printf(i == 0 ? "" : ", ");
    PrintNumber(res.commits_per_second_series[i]);
  }
  std::printf("], \"meta\": {\"nproc\": %d, \"build_type\": ", doppel::NumCpus());
  PrintJsonString(build_type);
  std::printf(", \"compiler\": ");
  PrintJsonString(PERFBENCH_COMPILER);
  std::printf(", \"git_sha\": ");
  PrintJsonString(git_sha);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
