#include "obs/sampler.hpp"

#include <algorithm>
#include <cassert>

#include "obs/columns.hpp"

namespace ethsim::obs {

std::size_t TimeSeriesLog::Find(std::string_view name) const {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  return npos;
}

bool TimeSeriesLog::Accumulate(const TimeSeriesLog& other) {
  if (interval_us != other.interval_us || names != other.names) return false;
  // Ragged lengths (members that sampled for different spans) are legal as
  // long as the shorter time column is a prefix of the longer; anything else
  // is a genuine shape mismatch and leaves the target untouched.
  const std::size_t common = std::min(t_us.size(), other.t_us.size());
  for (std::size_t i = 0; i < common; ++i)
    if (t_us[i] != other.t_us[i]) return false;
  for (std::size_t s = 0; s < values.size(); ++s) {
    for (std::size_t i = 0; i < common; ++i)
      values[s][i] += other.values[s][i];
    // The longer member's tail carries over verbatim: past the shorter run's
    // end the pool is just the surviving members' sum.
    values[s].insert(values[s].end(), other.values[s].begin() + common,
                     other.values[s].end());
  }
  t_us.insert(t_us.end(), other.t_us.begin() + common, other.t_us.end());
  return true;
}

bool TimeSeriesLog::WriteBinary(const std::string& path,
                                std::string* error) const {
  ColumnWriter out;
  out.AddScalar("interval_us", interval_us);
  out.Add("t_us", t_us);
  for (std::size_t s = 0; s < names.size(); ++s) out.Add(names[s], values[s]);
  return out.Write(path, error);
}

bool TimeSeriesLog::ReadBinary(const std::string& path, TimeSeriesLog* out,
                               std::string* error) {
  ColumnReader in;
  if (!in.Open(path, error) ||
      !in.TakeScalar("interval_us", &out->interval_us, error) ||
      !in.Take("t_us", &out->t_us, error))
    return false;
  // Every other column is a series, in declaration order; the container
  // already guarantees the names are unique and non-empty.
  out->names.clear();
  out->values.clear();
  for (const ColumnReader::Column& column : in.columns()) {
    if (column.name == "interval_us" || column.name == "t_us") continue;
    out->names.push_back(column.name);
    out->values.emplace_back();
    if (!in.Take(column.name, &out->values.back(), error, out->t_us.size()))
      return false;
  }
  if (out->interval_us <= 0)
    return in.Fail(error, "interval_us " + std::to_string(out->interval_us) +
                              " is not positive");
  if (!out->t_us.empty() && out->t_us[0] != 0)
    return in.Fail(error, "first sample at t=" + std::to_string(out->t_us[0]) +
                              ", expected the t=0 baseline row");
  for (std::size_t i = 1; i < out->t_us.size(); ++i)
    if (out->t_us[i - 1] > out->t_us[i])
      return in.Fail(error, "time column is not nondecreasing (row " +
                                std::to_string(i) + ")");
  return true;
}

StateSampler::StateSampler(std::int64_t interval_us)
    : interval_us_(interval_us) {
  log_.interval_us = interval_us;
}

void StateSampler::AddProbe(std::string name, Probe probe) {
  assert(log_.sample_count() == 0 &&
         "probe registration must precede the first sample");
  log_.names.push_back(std::move(name));
  log_.values.emplace_back();
  probes_.push_back(std::move(probe));
}

void StateSampler::SampleNow(std::int64_t now_us) {
  log_.t_us.push_back(now_us);
  for (std::size_t s = 0; s < probes_.size(); ++s)
    log_.values[s].push_back(probes_[s]());
}

std::vector<SeriesWatermark> ComputeWatermarks(const TimeSeriesLog& log) {
  std::vector<SeriesWatermark> marks;
  marks.reserve(log.series_count());
  for (std::size_t s = 0; s < log.series_count(); ++s) {
    SeriesWatermark mark;
    mark.series = log.names[s];
    for (std::size_t i = 0; i < log.sample_count(); ++i) {
      if (i == 0 || log.values[s][i] > mark.peak) {
        mark.peak = log.values[s][i];
        mark.at_us = log.t_us[i];
      }
    }
    marks.push_back(std::move(mark));
  }
  return marks;
}

std::vector<SeriesWatermark> StateSampler::Watermarks() const {
  return ComputeWatermarks(log_);
}

}  // namespace ethsim::obs
