#include "common.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace e2e {

int ServerThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<uint64_t>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, samples->size() - 1);
  return static_cast<double>((*samples)[index]);
}

std::string SeededBody(rrq::util::Rng* rng, size_t min_len, size_t max_len) {
  const size_t len = static_cast<size_t>(rng->UniformRange(min_len, max_len));
  std::string body(len, ' ');
  for (char& c : body) c = static_cast<char>('a' + rng->Uniform(26));
  return body;
}

uint64_t SelfCpuMicros() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<uint64_t>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

Result<uint64_t> ProcessCpuMicros(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields after its
  // closing parenthesis are space-separated: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    return Status::NotFound("no /proc stat for pid " + std::to_string(pid));
  }
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return (utime + stime) * 1'000'000 / static_cast<uint64_t>(ticks);
}

HostCpu ReadHostCpu() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  HostCpu h;
  in >> label;
  for (int i = 0; i < 10; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    if (i < 8) h.total += v;  // guest time is already in user and nice
    if (i == 4) h.iowait = v;
    if (i == 7) h.steal = v;
  }
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string RrqdPath() { return RRQD_BINARY; }

// ---------------------------------------------------------------------------
// Daemon

Daemon::~Daemon() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    (void)Reap(true);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

Status Daemon::Start(const std::vector<std::string>& args) {
  if (pid_ > 0 && !reaped_) return Status::FailedPrecondition("running");
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  buffer_.clear();
  reaped_ = false;
  port_ = repl_port_ = 0;

  std::vector<std::string> argv = {RrqdPath()};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> c_argv;
  for (const std::string& a : argv) c_argv.push_back(const_cast<char*>(a.c_str()));
  c_argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. Spawn from
    // the main thread: PR_SET_PDEATHSIG fires when the forking
    // *thread* exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    // The library's sockets are not close-on-exec; a daemon must not
    // inherit the benchmark's connections or listeners.
    ::close_range(3, ~0U, 0);
    ::execv(c_argv[0], c_argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  const uint64_t deadline = NowMicros() + 30'000'000;
  auto line = WaitForLine("rrqd: listening on", deadline);
  if (!line.ok()) return line.status();
  port_ = static_cast<uint16_t>(
      std::strtoul(line->c_str() + line->rfind(':') + 1, nullptr, 10));
  if (std::find(args.begin(), args.end(), "backup") != args.end()) {
    auto repl = WaitForLine("rrqd: repl listening on", deadline);
    if (!repl.ok()) return repl.status();
    repl_port_ = static_cast<uint16_t>(
        std::strtoul(repl->c_str() + repl->rfind(':') + 1, nullptr, 10));
  }
  if (port_ == 0) return Status::Internal("rrqd announced no port: " + *line);
  return Status::OK();
}

Result<std::string> Daemon::WaitForLine(const std::string& token,
                                        uint64_t deadline_micros) {
  for (;;) {
    size_t nl;
    while ((nl = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (line.find(token) != std::string::npos) return line;
    }
    const uint64_t now = NowMicros();
    if (now >= deadline_micros) {
      return Status::TimedOut("rrqd never printed \"" + token + "\"");
    }
    struct pollfd pfd = {out_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>((deadline_micros - now) / 1000 + 1));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) continue;
    char chunk[4096];
    const ssize_t r = ::read(out_fd_, chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return Status::Unavailable("rrqd exited before \"" + token + "\"");
    buffer_.append(chunk, static_cast<size_t>(r));
  }
}

Status Daemon::Reap(bool block) {
  if (pid_ <= 0 || reaped_) return Status::OK();
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
    if (r == pid_) {
      reaped_ = true;
      wait_status_ = status;
      return Status::OK();
    }
    if (r == 0) return Status::OK();
    if (r < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("waitpid: ") + std::strerror(errno));
  }
}

bool Daemon::Exited() {
  (void)Reap(false);
  return reaped_;
}

Status Daemon::Kill() {
  if (pid_ <= 0) return Status::FailedPrecondition("never started");
  // A daemon that ended on its own before the crash failed.
  if (Exited()) {
    return Status::Internal("rrqd pid " + std::to_string(pid_) + " " + HowEnded() +
                            " before it was killed");
  }
  ::kill(pid_, SIGKILL);
  return Reap(true);
}

Status Daemon::Shutdown() {
  if (pid_ <= 0) return Status::FailedPrecondition("never started");
  if (!Exited()) {
    ::kill(pid_, SIGTERM);
    RRQ_RETURN_IF_ERROR(Reap(true));
  }
  if (WIFEXITED(wait_status_) && WEXITSTATUS(wait_status_) == 0) return Status::OK();
  return Status::Internal("rrqd pid " + std::to_string(pid_) + " " + HowEnded());
}

std::string Daemon::HowEnded() const {
  if (WIFSIGNALED(wait_status_)) {
    return "died by signal " + std::to_string(WTERMSIG(wait_status_));
  }
  return "exited with status " + std::to_string(WEXITSTATUS(wait_status_));
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    char value[64];
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
