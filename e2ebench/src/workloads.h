#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace e2e {

struct RunOptions {
  std::string workload;  // request_reply | volatile_pipeline | replicated_ack
  uint64_t seed = 1;
  int seconds = 10;
  /// false: end-to-end metrics against child rrqd daemons. true: that
  /// run, then a traced run with the daemon's components hosted
  /// in-process; prints the per-layer metrics and both runs' end-to-end
  /// numbers side by side.
  bool trace = false;
  /// Fresh scratch directory for daemon state; the caller removes it.
  std::string work_dir;
};

bool KnownWorkload(const std::string& name);

/// Runs one workload, prints the report and, as the last line of
/// stdout, the result JSON. Returns the process exit code: 0 only when
/// every operation and correctness check passed.
int Run(const RunOptions& options);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
