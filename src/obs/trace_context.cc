#include "obs/trace_context.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>

namespace pasa {
namespace obs {
namespace {

thread_local TraceContext tls_trace_context;  // trace_id == 0: inactive
const TraceContext kNoContext;

// SplitMix64 finalizer: full-period mixing of a sequential counter, so ids
// from the same process never collide and ids from different processes
// collide only if their seeds do.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::atomic<uint64_t>& IdCounter() {
  static std::atomic<uint64_t> counter(
      Mix(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count()) ^
          (static_cast<uint64_t>(::getpid()) << 32)));
  return counter;
}

uint64_t NextId() {
  const uint64_t id =
      Mix(IdCounter().fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

}  // namespace

uint64_t NewTraceId() { return NextId(); }
uint64_t NewSpanId() { return NextId(); }

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

uint64_t TraceIdFromHex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t id = 0;
  for (const char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
    id = (id << 4) | digit;
  }
  return id;
}

TraceContext* MutableCurrentTraceContext() {
  return tls_trace_context.trace_id != 0 ? &tls_trace_context : nullptr;
}

const TraceContext& CurrentTraceContext() {
  return tls_trace_context.trace_id != 0 ? tls_trace_context : kNoContext;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : saved_(tls_trace_context) {
  tls_trace_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { tls_trace_context = saved_; }

}  // namespace obs
}  // namespace pasa
