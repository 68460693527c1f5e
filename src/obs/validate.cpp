#include "obs/validate.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "obs/json.hpp"
#include "obs/provenance_dag.hpp"
#include "obs/sampler.hpp"
#include "obs/tx_provenance.hpp"

namespace ethsim::obs {

namespace {

const JsonValue kNull;

// Member `key` of an object, or null, so lookups chain without checks.
const JsonValue& At(const JsonValue& value, std::string_view key) {
  const JsonValue* member = value.Find(key);
  return member != nullptr ? *member : kNull;
}

bool IsHex64(const JsonValue& value) {
  return value.is_string() && value.string.size() == 64 &&
         std::all_of(value.string.begin(), value.string.end(),
                     [](unsigned char c) { return std::isxdigit(c) != 0; });
}

// "name" or its labeled form "name{...}".
bool MatchesMetric(const std::string& name, const std::string& metric) {
  return name == metric || name.rfind(metric + "{", 0) == 0;
}

class Validator {
 public:
  Validator(const std::string& dir, ValidationResult* result)
      : dir_(dir), result_(result) {}

  void Run(const std::vector<std::string>& require,
           const std::vector<std::string>& forbid_nonzero);

 private:
  void Fail(std::string message) {
    result_->failures.push_back(std::move(message));
  }
  std::string Path(const char* file) const {
    return (std::filesystem::path(dir_) / file).string();
  }
  // Parses each non-blank line of a JSON-lines file and hands it to `check`
  // with its "file:line" position.
  void ForEachJsonLine(
      const char* file,
      const std::function<void(const std::string&, const JsonValue&)>& check);

  void CheckManifest(const JsonValue& doc);
  void CheckMetrics(const char* file);
  void CheckTrace(const char* file);
  void CheckProfile(const char* file);
  template <typename Log>
  void CheckLog(const char* file) {
    Log log;
    std::string error;
    if (!Log::ReadBinary(Path(file), &log, &error)) Fail(error);
  }

  std::string dir_;
  ValidationResult* result_;
  std::set<std::string> metric_names_;
  std::map<std::string, std::int64_t> counters_;
};

void Validator::ForEachJsonLine(
    const char* file,
    const std::function<void(const std::string&, const JsonValue&)>& check) {
  std::string text;
  std::string error;
  if (!ReadTextFile(Path(file), &text, &error)) return Fail(error);
  std::size_t lineno = 0;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    const std::string where = std::string(file) + ":" + std::to_string(++lineno);
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    JsonValue record;
    if (ParseJson(line, &record, &error))
      check(where, record);
    else
      Fail(where + ": not JSON (" + error + ")");
  }
}

void Validator::CheckManifest(const JsonValue& doc) {
  if (At(doc, "schema").string != "ethsim-run-manifest-v1")
    Fail("manifest schema is not \"ethsim-run-manifest-v1\"");
  for (const char* key :
       {"tool", "seed", "config_digest", "determinism_digest",
        "events_executed", "head_number", "head_hash", "sim_duration_s",
        "telemetry", "build"})
    if (doc.Find(key) == nullptr)
      Fail(std::string("manifest missing key '") + key + "'");
  for (const char* key : {"config_digest", "determinism_digest", "head_hash"})
    if (doc.Find(key) != nullptr && !IsHex64(At(doc, key)))
      Fail(std::string("manifest ") + key + " is not a 64-digit hex string");
  const JsonValue& telemetry = At(doc, "telemetry");
  for (const char* key : {"metrics", "trace", "profile", "provenance"})
    if (!At(telemetry, key).is_bool())
      Fail(std::string("manifest telemetry.") + key + " is not a bool");
  // sample / txprov and the watermarks object appear only for runs that
  // recorded them, but must be well-formed when present.
  for (const char* key : {"sample", "txprov"})
    if (telemetry.Find(key) != nullptr && !At(telemetry, key).is_bool())
      Fail(std::string("manifest telemetry.") + key + " is not a bool");
  if (const JsonValue* marks = doc.Find("watermarks")) {
    if (!marks->is_object() || marks->members.empty())
      Fail("manifest watermarks is not a non-empty object");
    for (const auto& [series, mark] : marks->members)
      if (!At(mark, "peak").is_int() || !At(mark, "at_us").is_int())
        Fail("manifest watermarks[" + JsonString(series) + "] is malformed");
    if (!At(telemetry, "sample").boolean)
      Fail("manifest has watermarks but telemetry.sample is not true");
  }
  for (const char* key : {"git_sha", "build_type", "compiler"})
    if (!At(At(doc, "build"), key).is_string())
      Fail(std::string("manifest build.") + key + " is not a string");
}

void Validator::CheckMetrics(const char* file) {
  ForEachJsonLine(file, [this](const std::string& where,
                               const JsonValue& record) {
    const JsonValue& name = At(record, "name");
    if (!name.is_string() || name.string.empty())
      return Fail(where + ": missing name");
    if (!metric_names_.insert(name.string).second)
      Fail(where + ": duplicate metric " + JsonString(name.string));
    const std::string& type = At(record, "type").string;
    bool ok = false;
    if (type == "counter") {
      ok = At(record, "value").is_int();
      if (ok) counters_[name.string] = At(record, "value").integer;
    } else if (type == "histogram") {
      // [bound, count] pairs; the last is the +inf bucket with a null bound.
      const std::vector<JsonValue>& buckets = At(record, "buckets").items;
      ok = At(record, "count").is_int() && At(record, "sum").is_int() &&
           !buckets.empty();
      std::int64_t total = 0;
      for (const JsonValue& bucket : buckets) {
        ok = ok && bucket.items.size() == 2 && bucket.items[1].is_int();
        if (ok) total += bucket.items[1].integer;
      }
      ok = ok && buckets.back().items[0].type == JsonValue::Type::kNull;
      if (ok && total != At(record, "count").integer)
        Fail(where + ": bucket counts do not sum to count for " +
             JsonString(name.string));
    }
    if (!ok) Fail(where + ": malformed " + JsonString(type) + " record");
  });
  if (metric_names_.empty()) Fail(std::string(file) + " contains no metrics");
}

void Validator::CheckTrace(const char* file) {
  std::string text;
  std::string error;
  if (!ReadTextFile(Path(file), &text, &error)) return Fail(error);
  // Walk the document one event at a time: a full trace holds ~1M events.
  JsonParser parser(text);
  bool have_events = false;
  std::size_t events = 0;
  JsonValue value, other;
  std::string key;
  parser.BeginObject();
  while (parser.NextMember(&key)) {
    if (key == "otherData") {
      parser.Parse(&other);
    } else if (key != "traceEvents") {
      parser.Parse(&value);
    } else if (parser.BeginArray()) {
      have_events = true;
      while (parser.NextItem() && parser.Parse(&value)) {
        const std::size_t index = events++;
        const auto fail = [&](const std::string& what) {
          Fail(std::string(file) + " traceEvents[" + std::to_string(index) +
               "]" + what);
        };
        if (!value.is_object()) {
          fail(" is not an object");
          continue;
        }
        const char* missing = nullptr;
        for (const char* field : {"name", "cat", "ph"})
          if (missing == nullptr && !At(value, field).is_string())
            missing = field;
        for (const char* field : {"ts", "pid", "tid"})
          if (missing == nullptr && !At(value, field).is_int()) missing = field;
        const std::string& ph = At(value, "ph").string;
        if (missing != nullptr)
          fail(std::string(" missing/invalid '") + missing + "'");
        else if (ph == "X" && !At(value, "dur").is_int())
          fail(": complete event without dur");
        else if (ph != "X" && ph != "i")
          fail(": unexpected phase " + JsonString(ph));
      }
    }
  }
  if (!parser.AtEnd())
    return Fail(std::string(file) + ": not JSON (" +
                (parser.ok() ? "trailing characters" : parser.error()) + ")");
  if (!have_events) return Fail(std::string(file) + " has no traceEvents list");
  const JsonValue& emitted = At(other, "emitted");
  if (!emitted.is_int())
    Fail(std::string(file) + " otherData.emitted missing");
  else if (emitted.integer < static_cast<std::int64_t>(events))
    Fail(std::string(file) + " emitted < retained event count");
}

void Validator::CheckProfile(const char* file) {
  bool histogram = false;
  ForEachJsonLine(file, [this, &histogram](const std::string& where,
                                           const JsonValue& record) {
    const std::string& type = At(record, "type").string;
    histogram = histogram || type == "callback_histogram";
    if (type != "sample" && type != "callback_histogram")
      Fail(where + ": unknown record type " + JsonString(type));
  });
  if (!histogram) Fail(std::string(file) + " has no callback_histogram record");
}

void Validator::Run(const std::vector<std::string>& require,
                    const std::vector<std::string>& forbid_nonzero) {
  std::string text;
  std::string error;
  if (!ReadTextFile(Path("manifest.json"), &text, &error)) {
    result_->io_error = true;
    return Fail(error);
  }
  JsonValue manifest;
  if (!ParseJson(text, &manifest, &error) || !manifest.is_object())
    return Fail("manifest.json: not a JSON object (" + error + ")");
  CheckManifest(manifest);

  struct Artifact {
    const char* file;
    const char* flag;  // manifest telemetry flag that promises the file
    void (Validator::*check)(const char*);
  };
  const Artifact artifacts[] = {
      {"metrics.jsonl", "metrics", &Validator::CheckMetrics},
      {"trace.json", "trace", &Validator::CheckTrace},
      {"profile.jsonl", "profile", &Validator::CheckProfile},
      {"provenance.bin", "provenance", &Validator::CheckLog<ProvenanceLog>},
      {"timeseries.bin", "sample", &Validator::CheckLog<TimeSeriesLog>},
      {"txprov.bin", "txprov", &Validator::CheckLog<TxProvLog>},
  };
  for (const Artifact& artifact : artifacts) {
    std::error_code ec;
    if (std::filesystem::exists(Path(artifact.file), ec))
      (this->*artifact.check)(artifact.file);
    else if (At(At(manifest, "telemetry"), artifact.flag).boolean)
      Fail(std::string("manifest says ") + artifact.file +
           " enabled but the file is missing");
  }

  if (!require.empty() && metric_names_.empty())
    Fail("--require given but no metrics.jsonl was validated");
  else
    for (const std::string& metric : require)
      if (std::none_of(metric_names_.begin(), metric_names_.end(),
                       [&](const std::string& name) {
                         return MatchesMetric(name, metric);
                       }))
        Fail("metrics.jsonl has no metric matching " + JsonString(metric));

  if (!forbid_nonzero.empty() && counters_.empty())
    Fail("--forbid-nonzero given but no metrics.jsonl was validated");
  else
    for (const std::string& prefix : forbid_nonzero) {
      bool matched = false;
      for (const auto& [name, value] : counters_) {
        if (!MatchesMetric(name, prefix)) continue;
        matched = true;
        if (value != 0)
          Fail("counter " + name + " = " + std::to_string(value) +
               " (required zero)");
      }
      if (!matched)
        Fail("--forbid-nonzero " + prefix + ": no matching counter recorded");
    }
}

}  // namespace

ValidationResult ValidateRunDir(const std::string& dir,
                                const std::vector<std::string>& require,
                                const std::vector<std::string>& forbid_nonzero) {
  ValidationResult result;
  Validator(dir, &result).Run(require, forbid_nonzero);
  return result;
}

}  // namespace ethsim::obs
