#include "speed_gauge.h"

#include <sched.h>

#include <chrono>
#include <ctime>
#include <limits>

#include "server_process.h"

namespace pasa_bench {

namespace {

/// Iterations per CPU-ns of the loop below on an uncontended core of an
/// Intel Xeon (Sapphire Rapids) KVM guest; only the scale of nominal time
/// depends on it.
constexpr double kNominalPerNs = 0.28;

/// Calibration iterations between two updates of the shared counter.
constexpr uint64_t kBlock = 1024;

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

SpeedGauge::SpeedGauge(int cpu) {
  thread_ = std::thread([this, cpu] { Run(cpu); });
  pthread_getcpuclockid(thread_.native_handle(), &clock_);
}

SpeedGauge::~SpeedGauge() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void SpeedGauge::Run(int cpu) {
  PinToCpu(cpu);
  const sched_param param{};
  sched_setscheduler(0, SCHED_IDLE, &param);
  // Four independent xorshift lanes: integer work that keeps several
  // execution ports busy, as the server's code does, and so slows down as
  // much as it does when another thread shares the core.
  uint64_t a = 1, b = 2, c = 3, d = 4;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (uint64_t i = 0; i < kBlock; ++i) {
      a ^= a << 13, a ^= a >> 7, a ^= a << 17, a += 0x9E37;
      b ^= b << 13, b ^= b >> 7, b ^= b << 17, b += 0x9E37;
      c ^= c << 13, c ^= c >> 7, c ^= c << 17, c += 0x9E37;
      d ^= d << 13, d ^= d >> 7, d ^= d << 17, d += 0x9E37;
    }
    // Published, so the compiler cannot drop the loop.
    sink_.store(a ^ b ^ c ^ d, std::memory_order_relaxed);
    work_.fetch_add(kBlock, std::memory_order_relaxed);
  }
}

SpeedGauge::Reading SpeedGauge::Read() const {
  Reading r;
  r.work = work_.load(std::memory_order_relaxed);
  r.cpu_ns = CpuNanos(clock_);
  return r;
}

double SpeedGauge::Factor(const Reading& from, const Reading& to) {
  const int64_t cpu_ns = to.cpu_ns - from.cpu_ns;
  if (cpu_ns < 1'000'000) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(to.work - from.work) /
         static_cast<double>(cpu_ns) / kNominalPerNs;
}

double SpeedGauge::IdleFactor(double seconds) const {
  const Reading from = Read();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return Factor(from, Read());
}

}  // namespace pasa_bench
