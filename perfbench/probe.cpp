#include "probe.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::optional<double> StatusMb(std::string_view status, std::string_view key) {
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':')
      continue;
    line.remove_prefix(key.size() + 1);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
      line.remove_prefix(1);
    std::uint64_t kb = 0;
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(), kb);
    if (ec != std::errc{} || end == line.data()) return std::nullopt;
    if (std::string_view(end, line.data() + line.size() - end) != " kB")
      return std::nullopt;
    return static_cast<double>(kb) / 1024.0;
  }
  return std::nullopt;
}

std::optional<double> ReadSelfStatusMb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return StatusMb(text.str(), key);
}

int SpanLog::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double SpanLog::End(int index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("SpanLog::End: span " + std::to_string(index) +
                           " is not the innermost open span");
  open_.pop_back();
  spans_[index].end = Clock::now();
  return Seconds(index);
}

void SpanLog::Count(int index, std::string name, double value) {
  spans_.at(index).counters.emplace_back(std::move(name), value);
}

double SpanLog::Seconds(int index) const {
  const Span& span = spans_.at(index);
  return std::chrono::duration<double>(span.end - span.start).count();
}

void SpanLog::WriteChromeTrace(std::ostream& out) const {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const std::streamsize precision = out.precision(15);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(span.start)
        << ",\"dur\":" << us(span.end) - us(span.start) << ",\"args\":{"
        << "\"parent\":\""
        << (span.parent < 0 ? "" : spans_[span.parent].name) << "\"";
    for (const auto& [name, value] : span.counters)
      out << ",\"" << name << "\":" << value;
    out << "}}";
  }
  out << "\n]}\n";
  out.precision(precision);
}

}  // namespace perfbench
