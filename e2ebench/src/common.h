#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace e2e {

using rrq::Result;
using rrq::Status;

/// The queue rrqd's request server takes requests from.
inline constexpr char kRequestQueue[] = "requests";

/// rrqd's --threads for every daemon that runs a request server: one
/// server thread per core.
int ServerThreads();

uint64_t NowMicros();
uint64_t NowNanos();

/// Nearest-rank percentile (q in [0,1]) of `samples`, sorted in place.
/// 0 when there are no samples.
double Percentile(std::vector<uint64_t>* samples, double q);

/// A body of seeded printable bytes whose length is uniform in
/// [min_len, max_len].
std::string SeededBody(rrq::util::Rng* rng, size_t min_len, size_t max_len);

/// CPU time (user + system) of this process, all threads, in µs.
uint64_t SelfCpuMicros();
/// CPU time (user + system) of process `pid`, all threads, in µs, read
/// from /proc/<pid>/stat.
Result<uint64_t> ProcessCpuMicros(int pid);
/// The host's CPU time since boot, in clock ticks, from /proc/stat:
/// all of it, and the parts stolen by the hypervisor and idle waiting
/// for I/O. A slow run with high steal or iowait was a busy host.
struct HostCpu {
  uint64_t total = 0, steal = 0, iowait = 0;
};
HostCpu ReadHostCpu();
/// Total size of the regular files under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

/// Path of the rrqd binary built beside the benchmark.
std::string RrqdPath();

/// One rrqd child process. Its stdout is a pipe read for the
/// "listening" announcements; it dies with the benchmark
/// (PR_SET_PDEATHSIG), so no daemon outlives a run even when the
/// benchmark itself is killed.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns rrqd with `args` and waits until it listens (and, with
  /// --role backup, until its replication listener is up).
  Status Start(const std::vector<std::string>& args);

  uint16_t port() const { return port_; }
  uint16_t repl_port() const { return repl_port_; }
  int pid() const { return pid_; }

  /// CPU used so far; call before the process is reaped.
  Result<uint64_t> CpuMicros() const { return ProcessCpuMicros(pid_); }

  /// Non-blocking: true once the child has exited (it is reaped).
  bool Exited();
  /// SIGKILL and reap — the deliberate crash. Fails, with how it
  /// ended, if the daemon had already exited on its own.
  Status Kill();
  /// SIGTERM and reap. Fails unless the daemon exits with status 0: a
  /// daemon that died by a signal or failed must fail the run.
  Status Shutdown();

 private:
  Result<std::string> WaitForLine(const std::string& token,
                                  uint64_t deadline_micros);
  Status Reap(bool block);
  /// How a reaped daemon ended: its signal or exit status.
  std::string HowEnded() const;

  int pid_ = -1;
  int out_fd_ = -1;
  bool reaped_ = false;
  int wait_status_ = 0;
  uint16_t port_ = 0;
  uint16_t repl_port_ = 0;
  std::string buffer_;
};

/// Ordered metric name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
