#ifndef PASA_OBS_LOG_H_
#define PASA_OBS_LOG_H_

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pasa {
namespace obs {

/// Severity, ordered: a message is emitted iff its level >= the logger's
/// runtime minimum. kOff silences everything.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Short stable lowercase name ("debug", "info", "warn", "error", "off").
const char* LogLevelName(LogLevel level);

/// Parses a level name (case-insensitive); InvalidArgument on anything
/// else. Accepts "warning" as an alias of "warn".
Result<LogLevel> ParseLogLevel(std::string_view name);

/// Optional structured key/value payload attached to a log record.
using LogFields = std::vector<std::pair<std::string, std::string>>;

/// Process-wide leveled, component-tagged logger replacing the ad-hoc
/// printf/fprintf scattered through the pipeline. Two sink formats:
///
///  - human (default, stderr):
///      2026-08-06T12:34:56.789Z INFO  [csp] snapshot advanced moves=128
///  - JSONL (one object per line, for ingestion):
///      {"ts":"...","level":"info","component":"csp",
///       "msg":"snapshot advanced","moves":"128"}
///
/// The level check is one relaxed atomic load, so disabled-level call
/// sites cost nothing beyond evaluating their arguments; use
/// Logger::Global().Enabled(level) to guard expensive formatting.
/// Emission itself serializes on a mutex (log lines never interleave).
class Logger {
 public:
  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;
  ~Logger();

  /// The process-wide logger all components write to.
  static Logger& Global();

  void SetLevel(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  /// Routes output to `path` as JSONL (creating parent directories).
  /// Replaces any previous file sink.
  Status SetJsonlFile(const std::string& path);

  /// Routes output to `path` in the human format.
  Status SetHumanFile(const std::string& path);

  /// Restores the default human-format stderr sink.
  void UseStderr();

  /// Emits one record if `level` passes the filter. `component` is a short
  /// subsystem tag ("csp", "parallel", "anonymizer", "incremental", "cli",
  /// "benchstat"); `fields` are appended as key=value (human) or extra
  /// JSON members (JSONL).
  void Log(LogLevel level, std::string_view component,
           std::string_view message, const LogFields& fields = {});

 private:
  enum class Format { kHuman, kJsonl };
  Status SetFile(const std::string& path, Format format);

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  std::mutex mu_;
  std::FILE* file_ = nullptr;  ///< owned when non-null; else stderr
  Format format_ = Format::kHuman;
};

/// printf-style convenience wrappers over Logger::Global(). The level
/// filter is applied before formatting, so a suppressed call never
/// formats its message.
void LogDebug(const char* component, const char* format, ...)
    __attribute__((format(printf, 2, 3)));
void LogInfo(const char* component, const char* format, ...)
    __attribute__((format(printf, 2, 3)));
void LogWarn(const char* component, const char* format, ...)
    __attribute__((format(printf, 2, 3)));
void LogError(const char* component, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_LOG_H_
