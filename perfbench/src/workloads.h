// The benchmark's four workloads and the round plumbing they share.
// See perfbench/NOTES.md for why each workload exists and which layer metric should
// move which end-to-end metric.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // span files and the WAL directory live here
  // Self-test hook: expect one more commit than ran, so the correctness gate must trip.
  bool plant_wrong_count = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string failure;  // first failed check, when !correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<double> commits_per_second_series;  // within-run drift, one per second
  std::uint64_t spans_written = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    if (correct) {
      failure = why;
    }
    correct = false;
  }
};

// Runs cfg.workload; false when the name is unknown. Each round runs in a forked child
// process, so the caller must not have other threads running.
bool RunWorkload(const RunConfig& cfg, Result* res);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
