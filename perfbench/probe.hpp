// Measurement helpers of the study benchmark: the process-memory reader and
// the in-memory span log the traced run writes out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// The value of a "Key:   1234 kB" line of /proc/<pid>/status text, in MB
// (1 MB = 2^20 bytes). Empty when the key is absent or malformed.
std::optional<double> StatusMb(std::string_view status, std::string_view key);

// StatusMb over this process's /proc/self/status; "VmRSS" is the resident
// set now, "VmHWM" its high-water mark. Empty when the file is unreadable.
std::optional<double> ReadSelfStatusMb(std::string_view key);

// Wall-clock spans with parent links and counters, kept in memory and
// written out once as a Chrome trace (loadable in Perfetto).
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;  // index into spans(); -1 for a root span
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::pair<std::string, double>> counters;
  };

  SpanLog() : origin_(Clock::now()) {}

  // Opens a span whose parent is the innermost open span; returns its index.
  int Begin(std::string name);
  // Closes span `index`, which must be the innermost open span; returns its
  // duration in seconds.
  double End(int index);
  // Attaches a counter to span `index`.
  void Count(int index, std::string name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(int index) const;

  // {"traceEvents": [...]} with one complete ('X') event per closed span;
  // args carry the parent's name and the span's counters.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
