#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace ethsim::obs {

std::string_view TraceCategoryName(TraceCategory cat) {
  switch (cat) {
    case TraceCategory::kBlock: return "block";
    case TraceCategory::kTx: return "tx";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kMine: return "mine";
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kFault: return "fault";
  }
  return "?";
}

std::uint32_t ParseTraceCategories(std::string_view csv) {
  if (csv.empty() || csv == "all" || csv == "1") return kAllTraceCategories;
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string_view::npos) end = csv.size();
    const std::string_view token = csv.substr(start, end - start);
    for (std::size_t c = 0; c < kTraceCategoryCount; ++c)
      if (token == TraceCategoryName(static_cast<TraceCategory>(c)))
        mask |= 1u << c;
    if (end == csv.size()) break;
    start = end + 1;
  }
  return mask == 0 ? kAllTraceCategories : mask;
}

Tracer::Tracer(std::uint32_t category_mask, std::size_t capacity)
    : mask_(category_mask & kAllTraceCategories),
      cap_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(cap_);
}

void Tracer::Emit(const TraceEvent& event) {
  if (!enabled(event.cat)) return;
  ++emitted_;
  if (!full_) {
    ring_.push_back(event);
    if (ring_.size() == cap_) {
      full_ = true;
      head_ = 0;
    } else {
      head_ = ring_.size();
    }
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % cap_;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  if (full_) {
    for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  } else {
    out.assign(ring_.begin(), ring_.end());
  }
  return out;
}

namespace {

void WriteEvent(std::ostream& out, const TraceEvent& e) {
  out << "{\"name\":";
  out << JsonString(e.name);
  out << ",\"cat\":";
  out << JsonString(TraceCategoryName(e.cat));
  out << ",\"ph\":\"" << e.phase << "\",\"ts\":" << e.ts_us;
  if (e.phase == 'X') out << ",\"dur\":" << e.dur_us;
  if (e.phase == 'i') out << ",\"s\":\"t\"";  // thread-scoped instant
  out << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  const bool has_args =
      e.arg_hash != 0 || e.arg_num != 0 || e.arg_kind != nullptr;
  if (has_args) {
    out << ",\"args\":{";
    bool first = true;
    if (e.arg_hash != 0) {
      out << "\"hash\":\"";
      // Render the 8-byte prefix as fixed-width hex, like ShortHex output.
      const char* digits = "0123456789abcdef";
      for (int shift = 60; shift >= 0; shift -= 4)
        out << digits[(e.arg_hash >> shift) & 0xF];
      out << '"';
      first = false;
    }
    if (e.arg_num != 0 || e.arg_hash != 0) {
      if (!first) out << ',';
      out << "\"number\":" << e.arg_num;
      first = false;
    }
    if (e.arg_kind != nullptr) {
      if (!first) out << ',';
      out << "\"kind\":";
      out << JsonString(e.arg_kind);
    }
    out << '}';
  }
  out << '}';
}

}  // namespace

void Tracer::WriteChromeTrace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto write = [&](const TraceEvent& e) {
    if (!first) out << ",";
    out << "\n";
    first = false;
    WriteEvent(out, e);
  };
  if (full_) {
    for (std::size_t i = head_; i < ring_.size(); ++i) write(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i) write(ring_[i]);
  } else {
    for (const TraceEvent& e : ring_) write(e);
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"clock_domain\":\"simulation\",\"emitted\":" << emitted_
      << ",\"dropped\":" << dropped() << "}}\n";
}

std::string Tracer::ToChromeTraceJson() const {
  std::ostringstream out;
  WriteChromeTrace(out);
  return out.str();
}

}  // namespace ethsim::obs
