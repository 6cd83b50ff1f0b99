#ifndef PASA_BENCHMARK_SERVER_PROCESS_H_
#define PASA_BENCHMARK_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace pasa_bench {

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread (and what it forks later) to `cpu`.
void PinToCpu(int cpu);

/// One `pasa_cli serve --listen 0` child process. Spawn returns once the
/// server has printed its `listening on 127.0.0.1:<port>` line; the time
/// from fork to that line is the set-up time. The child runs on `cpu`
/// (unpinned when negative). The destructor kills and reaps a child that
/// is still running, so no server outlives the run.
class ServerProcess {
 public:
  static pasa::Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::vector<std::string>& argv, int cpu, double timeout_seconds);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  double setup_seconds() const { return setup_seconds_; }

  /// Waits for the child to exit (after a shutdown request), draining its
  /// standard output, and returns its exit code. A child still running at
  /// the deadline is killed and reported as an error.
  pasa::Result<int> WaitExit(double timeout_seconds);

  /// CPU time (user + system) of every thread of the server, in ns, from
  /// its process CPU clock. Time the hypervisor stole does not count.
  pasa::Result<int64_t> CpuNanos() const;

  /// Resident set size from /proc/<pid>/status.
  pasa::Result<uint64_t> RssBytes() const;

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  bool exited_ = false;
  uint16_t port_ = 0;
  double setup_seconds_ = 0.0;
};

}  // namespace pasa_bench

#endif  // PASA_BENCHMARK_SERVER_PROCESS_H_
