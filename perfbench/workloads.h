// The repo benchmark's workloads. Each builds its inputs from a seed
// during set-up, measures for a fixed number of seconds, checks its
// outputs, and returns either the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).

#ifndef MULTICAST_PERFBENCH_WORKLOADS_H_
#define MULTICAST_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the metrics export the traced run times.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The workload names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; unknown names fail the run.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // MULTICAST_PERFBENCH_WORKLOADS_H_
