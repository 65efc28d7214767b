// e2e_bench — the repository's end-to-end benchmark driver.
//
//   e2e_bench --workload request_reply|volatile_pipeline|replicated_ack
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Normally started by e2ebench/run.py, which builds it, makes and
// removes the scratch directory, and bounds the run's time.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload request_reply|volatile_pipeline|"
               "replicated_ack --seed N --seconds S --trace 0|1 --work-dir DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || !e2e::KnownWorkload(options.workload) ||
      options.seconds < 1 || options.work_dir.empty()) {
    Usage();
    return 2;
  }
  return e2e::Run(options);
}
