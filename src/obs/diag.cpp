#include "obs/diag.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/progress.hpp"

namespace ethsim::obs {

namespace {

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
  }
  return "?";
}

void LogV(LogLevel level, const char* component, const char* fmt,
          std::va_list args) {
  if (static_cast<int>(level) > static_cast<int>(DiagLevel())) return;
  std::fprintf(stderr, "[ethsim:%s] %s: ", component, LevelTag(level));
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}

}  // namespace

LogLevel ParseLogLevel(const char* value) {
  if (value == nullptr || value[0] == '\0') return LogLevel::kWarn;
  if (std::strcmp(value, "error") == 0 || std::strcmp(value, "0") == 0)
    return LogLevel::kError;
  return LogLevel::kWarn;
}

LogLevel DiagLevel() {
  static const LogLevel level = ParseLogLevel(std::getenv("ETHSIM_LOG"));
  return level;
}

namespace {

void AppendFormattedV(std::string& line, const char* fmt, std::va_list args) {
  std::va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed > 0) {
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    line.append(buf.data(), static_cast<std::size_t>(needed));
  }
}

}  // namespace

std::string FormatDiagMessageV(LogLevel level, const char* component,
                               const char* fmt, std::va_list args) {
  std::string line = "[ethsim:";
  line += component;
  line += "] ";
  line += LevelTag(level);
  line += ": ";
  AppendFormattedV(line, fmt, args);
  return line;
}

std::string FormatDiagMessage(LogLevel level, const char* component,
                              const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::string line = FormatDiagMessageV(level, component, fmt, args);
  va_end(args);
  return line;
}

void LogError(const char* component, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  LogV(LogLevel::kError, component, fmt, args);
  va_end(args);
}

void LogWarn(const char* component, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  LogV(LogLevel::kWarn, component, fmt, args);
  va_end(args);
}

bool ProgressEnabled() {
  static const bool enabled = ProgressConfig::FromEnv().enabled;
  return enabled;
}

void LogProgress(const char* component, const char* fmt, ...) {
  if (!ProgressEnabled()) return;
  // One line, one write: parallel sweep workers report through here, and a
  // single fwrite keeps their lines from interleaving mid-record.
  std::string line = "[ethsim:";
  line += component;
  line += "] progress: ";
  std::va_list args;
  va_start(args, fmt);
  AppendFormattedV(line, fmt, args);
  va_end(args);
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace ethsim::obs
