#include "obs/log.h"

#include <cctype>
#include <chrono>
#include <cstdarg>
#include <ctime>
#include <filesystem>

#include "obs/export.h"

namespace pasa {
namespace obs {
namespace {

// UTC wall-clock "2026-08-06T12:34:56.789Z".
std::string IsoTimestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const int millis = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          now.time_since_epoch())
          .count() %
      1000);
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, millis);
  return buf;
}

std::string FormatV(const char* format, va_list args) {
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  if (needed <= 0) return "";
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  return out;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

Result<LogLevel> ParseLogLevel(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off") return LogLevel::kOff;
  return Status::InvalidArgument("unknown log level '" + std::string(name) +
                                 "' (debug|info|warn|error|off)");
}

Logger::~Logger() {
  if (file_ != nullptr) std::fclose(file_);
}

Logger& Logger::Global() {
  static Logger* logger = new Logger();
  return *logger;
}

Status Logger::SetFile(const std::string& path, Format format) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      return Status::InvalidArgument("cannot create directory " +
                                     parent.string() + ": " + ec.message());
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open log file " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  format_ = format;
  return Status::Ok();
}

Status Logger::SetJsonlFile(const std::string& path) {
  return SetFile(path, Format::kJsonl);
}

Status Logger::SetHumanFile(const std::string& path) {
  return SetFile(path, Format::kHuman);
}

void Logger::UseStderr() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  format_ = Format::kHuman;
}

void Logger::Log(LogLevel level, std::string_view component,
                 std::string_view message, const LogFields& fields) {
  if (!Enabled(level) || level == LogLevel::kOff) return;
  const std::string ts = IsoTimestamp();
  std::string line;
  std::lock_guard<std::mutex> lock(mu_);
  if (format_ == Format::kJsonl) {
    line = "{\"ts\": \"" + ts + "\", \"level\": \"" + LogLevelName(level) +
           "\", \"component\": \"" + JsonEscape(std::string(component)) +
           "\", \"msg\": \"" + JsonEscape(std::string(message)) + "\"";
    for (const auto& [key, value] : fields) {
      line += ", \"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
    }
    line += "}\n";
  } else {
    char head[16];
    std::snprintf(head, sizeof(head), "%-5s",
                  LogLevelName(level));  // align columns
    for (char* c = head; *c != '\0'; ++c) {
      *c = static_cast<char>(std::toupper(static_cast<unsigned char>(*c)));
    }
    line = ts + " " + head + " [" + std::string(component) + "] " +
           std::string(message);
    for (const auto& [key, value] : fields) {
      line += " " + key + "=" + value;
    }
    line += "\n";
  }
  std::FILE* out = file_ != nullptr ? file_ : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
}

#define PASA_OBS_LOGF_BODY(Level)                            \
  if (!Logger::Global().Enabled(Level)) return;              \
  va_list args;                                              \
  va_start(args, format);                                    \
  const std::string message = FormatV(format, args);         \
  va_end(args);                                              \
  Logger::Global().Log(Level, component, message)

void LogDebug(const char* component, const char* format, ...) {
  PASA_OBS_LOGF_BODY(LogLevel::kDebug);
}
void LogInfo(const char* component, const char* format, ...) {
  PASA_OBS_LOGF_BODY(LogLevel::kInfo);
}
void LogWarn(const char* component, const char* format, ...) {
  PASA_OBS_LOGF_BODY(LogLevel::kWarn);
}
void LogError(const char* component, const char* format, ...) {
  PASA_OBS_LOGF_BODY(LogLevel::kError);
}

#undef PASA_OBS_LOGF_BODY

}  // namespace obs
}  // namespace pasa
