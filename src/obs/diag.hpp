// Leveled diagnostics logging for error paths and operational reporting.
// Tools/benches route failure messages (e.g. which dataset file failed to
// open, and why) through here so every binary reports problems the same way:
//
//   obs::LogError("dataset", "cannot open %s: %s", path, reason);
//     -> "[ethsim:dataset] error: cannot open ...": stderr
//
// Verbosity is gated by ETHSIM_LOG (default warn; "error" silences warnings).
// This is operator-facing plumbing, not part of the deterministic telemetry
// streams: never log from simulation hot paths.
#pragma once

#include <cstdarg>
#include <string>

namespace ethsim::obs {

enum class LogLevel : int { kError = 0, kWarn = 1 };

// Maps an ETHSIM_LOG value to a threshold: "error"/"0" -> kError, anything
// else (including unset/empty/malformed) -> kWarn. Pure — unit-testable
// without touching the environment.
LogLevel ParseLogLevel(const char* value);

// Current threshold (ParseLogLevel of ETHSIM_LOG, cached on first use).
LogLevel DiagLevel();

// The exact line LogError/LogWarn print (sans trailing newline):
// "[ethsim:<component>] <tag>: <formatted message>". Exposed for tests.
std::string FormatDiagMessage(LogLevel level, const char* component,
                              const char* fmt, ...);
std::string FormatDiagMessageV(LogLevel level, const char* component,
                               const char* fmt, std::va_list args);

// printf-style; `component` is a short subsystem tag ("dataset", "telemetry").
#if defined(__GNUC__)
#define ETHSIM_PRINTF_ATTR __attribute__((format(printf, 2, 3)))
#else
#define ETHSIM_PRINTF_ATTR
#endif
void LogError(const char* component, const char* fmt, ...) ETHSIM_PRINTF_ATTR;
void LogWarn(const char* component, const char* fmt, ...) ETHSIM_PRINTF_ATTR;

// Operator-facing run-health reporting, gated by ETHSIM_PROGRESS instead of
// the diagnostics threshold (progress is opt-in status output, not a
// warning). Same stderr "[ethsim:<component>] progress: ..." shape so every
// binary reports health uniformly; wall-clock pacing lives in
// obs::ProgressReporter, never in simulation state. ProgressEnabled() is
// ProgressConfig::FromEnv().enabled, cached on first use.
bool ProgressEnabled();
void LogProgress(const char* component, const char* fmt, ...) ETHSIM_PRINTF_ATTR;
#undef ETHSIM_PRINTF_ATTR

}  // namespace ethsim::obs
