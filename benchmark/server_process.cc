#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace pasa_bench {

using pasa::Result;
using pasa::Status;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Reads what is available on `fd` into `out`, waiting at most `wait_ms`.
// Returns false at end of file.
bool ReadSome(int fd, int wait_ms, std::string* out) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = poll(&pfd, 1, wait_ms);
  if (ready <= 0) return true;
  char buf[4096];
  const ssize_t n = read(fd, buf, sizeof(buf));
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n));
    return true;
  }
  return n < 0 && (errno == EINTR || errno == EAGAIN);
}

}  // namespace

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::vector<std::string>& argv, int cpu, double timeout_seconds) {
  int out[2];
  if (pipe(out) != 0) return Status::Internal("pipe failed");
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it crashes.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cpu >= 0) PinToCpu(cpu);
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(args[0], args.data());
    std::fprintf(stderr, "exec %s: %s\n", args[0], std::strerror(errno));
    _exit(127);
  }
  close(out[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, out[0]));
  static constexpr char kListening[] = "listening on 127.0.0.1:";
  std::string text;
  while (true) {
    const size_t line = text.find(kListening);
    if (line != std::string::npos &&
        text.find('\n', line) != std::string::npos) {
      server->setup_seconds_ = SecondsSince(start);
      server->port_ = static_cast<uint16_t>(
          std::atoi(text.c_str() + line + std::strlen(kListening)));
      break;
    }
    if (SecondsSince(start) > timeout_seconds) {
      return Status::DeadlineExceeded("server did not start listening: " +
                                      text);
    }
    if (!ReadSome(server->stdout_fd_, 100, &text)) {
      return Status::Unavailable("server exited before listening: " + text);
    }
  }
  if (server->port_ == 0) {
    return Status::Internal("cannot parse the listening port: " + text);
  }
  return server;
}

ServerProcess::~ServerProcess() {
  if (!exited_ && pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

Result<int> ServerProcess::WaitExit(double timeout_seconds) {
  const auto start = std::chrono::steady_clock::now();
  std::string discard;
  while (SecondsSince(start) < timeout_seconds) {
    discard.clear();
    if (!ReadSome(stdout_fd_, 100, &discard)) break;
  }
  while (true) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      exited_ = true;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      return Status::Internal("server died with signal " +
                              std::to_string(WTERMSIG(status)));
    }
    if (SecondsSince(start) > timeout_seconds) break;
    usleep(1000);
  }
  return Status::DeadlineExceeded("server did not exit after shutdown");
}

Result<int64_t> ServerProcess::CpuNanos() const {
  clockid_t clock{};
  timespec ts{};
  if (clock_getcpuclockid(pid_, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return Status::NotFound("cannot read the server's CPU clock");
  }
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Result<uint64_t> ServerProcess::RssBytes() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<uint64_t>(std::atoll(line.c_str() + 6)) * 1024;
    }
  }
  return Status::NotFound("no VmRSS for the server");
}

}  // namespace pasa_bench
