// What the two flight recorders (obs/provenance_dag, obs/tx_provenance)
// share: the host -> region table of their artifacts and the runtime
// invariant checker that rides their record streams.
#pragma once

#include <array>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/diag.hpp"
#include "obs/metrics.hpp"

namespace ethsim::obs {

// A host's entry in an artifact's host -> region table (net::Region index).
// Hosts that appear in records without registering read as kUnknownRegion.
inline constexpr std::uint8_t kUnknownRegion = 0xff;
inline void SetHostRegion(std::vector<std::uint8_t>& table, std::uint32_t host,
                          std::uint8_t region) {
  if (host >= table.size()) table.resize(host + 1, kUnknownRegion);
  table[host] = region;
}

// Policy and counters for one stream's invariants. The recorder evaluates
// each fact at its hook and reports a failed one to Violate, so the checker
// holds no per-object state and tests can drive it by direct calls. A
// violation bumps `<stream>.violation{check=...}` (registered eagerly, one
// per check, so the metrics stream's shape is a function of config alone),
// then warns, or, when `fatal` (ETHSIM_PROVENANCE=strict /
// ETHSIM_TXPROV=strict), logs and aborts.
template <typename Check, std::size_t kChecks>
class InvariantChecker {
 public:
  // `stream` names the counters and the log component; `name` maps a check
  // to its counter label.
  InvariantChecker(const char* stream, std::string_view (*name)(Check),
                   bool fatal)
      : stream_(stream), name_(name), fatal_(fatal) {}

  void AttachMetrics(MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    for (std::size_t i = 0; i < kChecks; ++i)
      counters_[i] = metrics->GetCounter(
          LabeledName(std::string(stream_) + ".violation",
                      {{"check", name_(static_cast<Check>(i))}}));
  }

  // Counts a violation of `check`, with a printf-style detail.
  [[gnu::format(printf, 3, 4)]] void Violate(Check check, const char* format,
                                             ...) {
    char detail[192];
    std::va_list args;
    va_start(args, format);
    std::vsnprintf(detail, sizeof(detail), format, args);
    va_end(args);
    ++total_;
    ++by_check_[static_cast<std::size_t>(check)];
    if (Counter* c = counters_[static_cast<std::size_t>(check)]) c->Add();
    if (handler_) {
      handler_(check, detail);
      return;
    }
    const std::string name(name_(check));
    if (total_ <= kMaxLoggedViolations) {
      LogWarn(stream_, "invariant %s violated: %s", name.c_str(), detail);
      if (total_ == kMaxLoggedViolations)
        LogWarn(stream_,
                "further invariant violations will be counted but not logged");
    }
    if (fatal_) {
      LogError(stream_, "aborting on invariant violation (%s): %s",
               name.c_str(), detail);
      std::abort();
    }
  }

  std::uint64_t total() const { return total_; }
  const std::array<std::uint64_t, kChecks>& by_check() const {
    return by_check_;
  }

  // Test hook: replaces the default handler (LogWarn, abort when fatal).
  using Handler = std::function<void(Check, const std::string&)>;
  void set_handler(Handler handler) { handler_ = std::move(handler); }

 private:
  // How many violations get a log line before the checker goes quiet (the
  // counters keep the full tally either way).
  static constexpr std::uint64_t kMaxLoggedViolations = 16;

  const char* stream_;
  std::string_view (*name_)(Check);
  bool fatal_;
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kChecks> by_check_{};
  std::array<Counter*, kChecks> counters_{};
  Handler handler_;
};

}  // namespace ethsim::obs
