// Deterministic state-sampling flight recorder (ETHSIM_SAMPLE). Where the
// metrics registry answers "how much happened over the whole run" and the
// provenance DAG answers "what happened to one message", the sampler answers
// "what did the engine look like at minute 37": event-queue depth, txpool
// backlog, orphan-buffer growth, in-flight traffic — each as a function of
// *sim time*, written to a columnar `timeseries.bin` (obs/columns).
//
// Split of responsibilities (dependency layering: obs never includes sim):
//   * StateSampler (here) owns the registered probes and the recorded
//     columns. It has no notion of scheduling.
//   * core::Experiment registers the probes and drives SampleNow() from a
//     self-rescheduling sim-clock event, so the cadence is part of the
//     deterministic event order of a sampled run.
//
// Contract, identical to the fault/provenance subsystems: with the gate off
// nothing is constructed and nothing is scheduled — goldens are
// byte-identical and zero extra RNG draws happen. With the gate on, probes
// READ state and never mutate it: head hash, head number and the determinism
// digest are unchanged (only events_executed grows, by the sampler's own
// ticks — the digest deliberately excludes it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ethsim::obs {

// The sampled columns of one run. All series share the one time column
// (samples are taken synchronously), which is what makes window slicing and
// cross-series alignment trivial downstream.
struct TimeSeriesLog {
  std::int64_t interval_us = 0;
  std::vector<std::string> names;
  std::vector<std::int64_t> t_us;
  // values[series][sample]; every inner vector has t_us.size() entries.
  std::vector<std::vector<std::int64_t>> values;

  std::size_t series_count() const { return names.size(); }
  std::size_t sample_count() const { return t_us.size(); }

  // Index of a named series, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t Find(std::string_view name) const;

  // Element-wise accumulation for cross-seed merging: requires an identical
  // series table and interval, and time columns where the shorter is a
  // prefix of the longer (ragged lengths pool over the shared prefix and
  // keep the longer tail). Returns false (untouched) on a shape mismatch.
  bool Accumulate(const TimeSeriesLog& other);

  // timeseries.bin IO through the columnar container (obs/columns): a 1-row
  // `interval_us`, the i64 `t_us` column, then one i64 column per series,
  // named after it, in series order. The reader also rejects a non-positive
  // interval and a time column that does not start with the t=0 row or
  // ever decreases. Both return false and fill `error` on failure.
  bool WriteBinary(const std::string& path, std::string* error = nullptr) const;
  static bool ReadBinary(const std::string& path, TimeSeriesLog* out,
                         std::string* error = nullptr);
};

// Per-series peak + the sim time it was first reached; folded into the run
// manifest so saturation shows up without opening the binary artifact.
struct SeriesWatermark {
  std::string series;
  std::int64_t peak = 0;
  std::int64_t at_us = 0;
};

// Peak + first-peak time per series, in series order. Pure function of the
// columns, so ethsim_inspect recomputes the same values from timeseries.bin
// that the producing run folded into its manifest.
std::vector<SeriesWatermark> ComputeWatermarks(const TimeSeriesLog& log);

class StateSampler {
 public:
  // A probe reads one engine quantity; it must not mutate anything, draw
  // randomness, or schedule events. Mutable lambda *capture* state is fine
  // (delta probes keep their previous reading there).
  using Probe = std::function<std::int64_t()>;

  explicit StateSampler(std::int64_t interval_us);

  std::int64_t interval_us() const { return interval_us_; }

  // Registration happens once, before the first SampleNow, so the series
  // table (and therefore the artifact shape) is a function of config alone.
  void AddProbe(std::string name, Probe probe);

  // Runs every probe and appends one row at `now_us`. Called by the
  // experiment's sampling event (and once at t=0 for the baseline row).
  void SampleNow(std::int64_t now_us);

  std::size_t series_count() const { return log_.series_count(); }
  std::size_t sample_count() const { return log_.sample_count(); }
  const TimeSeriesLog& log() const { return log_; }

  // Peak + first-peak time per series, in series order. Deterministic:
  // derived purely from the recorded columns.
  std::vector<SeriesWatermark> Watermarks() const;

 private:
  std::int64_t interval_us_;
  std::vector<Probe> probes_;
  TimeSeriesLog log_;
};

}  // namespace ethsim::obs
