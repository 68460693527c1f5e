// Run-directory validator coverage. A small, fully valid run directory is
// written by the real writers; each case breaks exactly one check and
// expects exit 1 (2 when there is no manifest) with a one-line reason.
#include "obs/validate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance_dag.hpp"
#include "obs/run_manifest.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/tx_provenance.hpp"

namespace ethsim::obs {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

std::string ReadAll(const fs::path& path) {
  std::string text;
  EXPECT_TRUE(ReadTextFile(path.string(), &text)) << path;
  return text;
}

void WriteAll(const fs::path& path, const std::string& bytes,
              std::ios::openmode mode = std::ios::trunc) {
  std::ofstream(path, std::ios::binary | mode) << bytes;
}

// The binary logs of the valid run, before they are written.
struct Logs {
  ProvenanceLog prov;
  TimeSeriesLog series;
  TxProvLog tx;
};

Logs ValidLogs() {
  Logs logs;
  logs.prov.host_region = {0, 1, 2};
  logs.prov.end_us = 10'000;
  logs.prov.Append(EdgeRecord{});  // origin at host 0
  logs.prov.Append(EdgeRecord{.send_us = 10, .arrival_us = 100, .to = 1,
                              .kind = EdgeKind::kNewBlock});
  logs.prov.Append(EdgeRecord{.send_us = 20, .from = 1, .to = 2,
                              .kind = EdgeKind::kGetBlock,
                              .drop = EdgeDrop::kPartitioned});
  logs.series.interval_us = 250'000;
  logs.series.names = {"ramp", "level"};
  logs.series.t_us = {0, 250'000, 500'000};
  logs.series.values = {{1, 5, 3}, {7, 7, 7}};
  logs.tx.host_region = {0, 1};
  logs.tx.depths = {0, 3};
  // tx 7: submitted, admitted, included, committed at depths 0 and 3.
  logs.tx.t_us = {0, 10, 20, 20, 30};
  logs.tx.tx = {7, 7, 7, 7, 7};
  logs.tx.host = {0, 0, 0, 0, 0};
  logs.tx.stage = {0, 2, 6, 8, 8};
  logs.tx.info = {0, 0, 0, 0, 3};
  logs.tx.aux = logs.tx.number = {0, 0, 0, 0, 0};
  return logs;
}

// Every artifact a fully instrumented run writes; `mutate` edits the binary
// logs before they are written.
void WriteRun(const fs::path& dir, void (*mutate)(Logs&) = nullptr) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Logs logs = ValidLogs();
  if (mutate != nullptr) mutate(logs);

  RunManifest manifest;
  manifest.tool = "validate_test";
  manifest.seed = 1;
  manifest.config_digest = std::string(64, 'a');
  manifest.determinism_digest = std::string(64, 'b');
  manifest.head_hash = std::string(64, 'c');
  manifest.metrics_enabled = manifest.trace_enabled = true;
  manifest.profile_enabled = manifest.provenance_enabled = true;
  manifest.sample_enabled = manifest.txprov_enabled = true;
  manifest.watermarks = ComputeWatermarks(logs.series);
  ASSERT_TRUE(WriteManifest((dir / "manifest.json").string(), manifest));

  MetricsRegistry metrics;
  metrics.GetCounter("provenance.violation{check=duplicate_first_seen}");
  metrics.GetCounter("fault.injected{kind=node_crash}")->Add(3);
  metrics.GetCounter("sim.queue")->Add(4);
  metrics.GetHistogram("net.latency_us", {100, 1000})->Observe(50);
  WriteAll(dir / "metrics.jsonl", metrics.ToJsonl());

  Tracer tracer{kAllTraceCategories, 16};
  tracer.Emit(TraceEvent{.name = "block.validate", .dur_us = 5, .phase = 'X'});
  tracer.Emit(TraceEvent{.name = "mine.mint"});
  WriteAll(dir / "trace.json", tracer.ToChromeTraceJson());
  WriteAll(dir / "profile.jsonl", EngineProfiler{}.ToJsonl());

  ASSERT_TRUE(logs.prov.WriteBinary((dir / "provenance.bin").string()));
  ASSERT_TRUE(logs.series.WriteBinary((dir / "timeseries.bin").string()));
  ASSERT_TRUE(logs.tx.WriteBinary((dir / "txprov.bin").string()));
}

fs::path TestDir() {
  return fs::temp_directory_path() / "ethsim_validate_test";
}

TEST(ValidateRunDir, AcceptsAFullyInstrumentedRun) {
  WriteRun(TestDir());
  const ValidationResult result = ValidateRunDir(
      TestDir().string(), {"fault.injected", "sim.queue"},
      {"provenance.violation"});
  EXPECT_EQ(result.exit_code(), 0)
      << (result.failures.empty() ? "" : result.failures.front());
}

// How a case breaks one file after the (possibly mutated) run is written.
enum class Edit { kNone, kReplace, kAppend, kWrite, kRemove };

struct BrokenCase {
  const char* name;
  Edit edit;
  const char* file;
  std::string from;    // kReplace: its first occurrence becomes `to`
  std::string to;      // kAppend / kWrite: the text
  const char* reason;  // must appear in one failure line
  void (*mutate)(Logs&) = nullptr;
  std::vector<std::string> require = {};
  std::vector<std::string> forbid_nonzero = {};
  int exit_code = 1;
};

constexpr Edit kNone = Edit::kNone, kReplace = Edit::kReplace,
               kAppend = Edit::kAppend, kWrite = Edit::kWrite,
               kRemove = Edit::kRemove;

// ctest lists each case as its name followed by gtest's byte dump of the
// BrokenCase, which opens with the address of `name`; under address-space
// randomization all but its low 12 bits differ from run to run. Case names of
// 13 or more characters keep those bits out of the first 100 characters of
// the listed test name.
const BrokenCase kCases[] = {
    // manifest.json
    {"ManifestMissing", kRemove, "manifest.json", "", "", "cannot open",
     nullptr, {}, {}, 2},
    {"ManifestNotJson", kWrite, "manifest.json", "", "{",
     "manifest.json: not a JSON object"},
    {"ManifestSchema", kReplace, "manifest.json", "ethsim-run-manifest-v1",
     "v0", "manifest schema is not"},
    {"ManifestMissingKey", kReplace, "manifest.json", ",\n  \"seed\": 1", "",
     "manifest missing key 'seed'"},
    {"ManifestDigestNotHex", kReplace, "manifest.json", std::string(64, 'a'),
     "xyz", "config_digest is not a 64-digit hex string"},
    {"ManifestTelemetryFlagNotBool", kReplace, "manifest.json",
     "\"metrics\": true", "\"metrics\": 1", "telemetry.metrics is not a bool"},
    {"ManifestSampleFlagNotBool", kReplace, "manifest.json",
     "\"sample\": true", "\"sample\": 1", "telemetry.sample is not a bool"},
    {"ManifestTxprovFlagNotBool", kReplace, "manifest.json",
     "\"txprov\": true", "\"txprov\": 1", "telemetry.txprov is not a bool"},
    {"ManifestWatermarksNotAnObject", kReplace, "manifest.json",
     "\"watermarks\": {", "\"watermarks\": [], \"old\": {",
     "watermarks is not a non-empty object"},
    {"ManifestWatermarkMalformed", kReplace, "manifest.json", "{\"peak\": 5",
     "{\"peak\": 5.5", "watermarks[\"ramp\"] is malformed"},
    {"ManifestWatermarksWithoutSample", kReplace, "manifest.json",
     "\"sample\": true", "\"sample\": false",
     "manifest has watermarks but telemetry.sample is not true"},
    {"ManifestBuildNotString", kReplace, "manifest.json", "\"git_sha\": \"",
     "\"git_sha\": 7, \"old\": \"", "manifest build.git_sha is not a string"},
    {"EnabledArtifactMissing", kRemove, "trace.json", "", "",
     "manifest says trace.json enabled but the file is missing"},
    // metrics.jsonl: four valid lines precede an appended one
    {"MetricsLineNotJson", kAppend, "metrics.jsonl", "", "{oops\n",
     "metrics.jsonl:5: not JSON"},
    {"MetricsMissingName", kAppend, "metrics.jsonl", "",
     "{\"type\":\"counter\",\"value\":1}\n", "metrics.jsonl:5: missing name"},
    {"MetricsDuplicateName", kAppend, "metrics.jsonl", "",
     "{\"type\":\"gauge\",\"name\":\"sim.queue\",\"value\":1,"
     "\"high_water\":1}\n",
     "metrics.jsonl:5: duplicate metric \"sim.queue\""},
    {"MetricsCounterMalformed", kAppend, "metrics.jsonl", "",
     "{\"type\":\"counter\",\"name\":\"c\",\"value\":1.5}\n",
     "metrics.jsonl:5: malformed \"counter\""},
    {"MetricsGaugeMalformed", kAppend, "metrics.jsonl", "",
     "{\"type\":\"gauge\",\"name\":\"g\",\"value\":1}\n",
     "metrics.jsonl:5: malformed \"gauge\""},
    {"MetricsHistogramWithoutOverflowBucket", kAppend, "metrics.jsonl", "",
     "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":1,"
     "\"buckets\":[[10,1]]}\n",
     "metrics.jsonl:5: malformed \"histogram\""},
    {"MetricsHistogramBucketSum", kAppend, "metrics.jsonl", "",
     "{\"type\":\"histogram\",\"name\":\"h\",\"count\":2,\"sum\":1,"
     "\"buckets\":[[10,1],[null,0]]}\n",
     "bucket counts do not sum to count for \"h\""},
    {"MetricsUnknownType", kAppend, "metrics.jsonl", "",
     "{\"type\":\"meter\",\"name\":\"m\",\"value\":1}\n",
     "metrics.jsonl:5: malformed \"meter\""},
    {"MetricsFileIsEmpty", kWrite, "metrics.jsonl", "", "",
     "metrics.jsonl contains no metrics"},
    // trace.json: event 0 is an 'X' span, event 1 an instant
    {"TraceTruncatedJson", kWrite, "trace.json", "", "{\"traceEvents\":[",
     "trace.json: not JSON"},
    {"TraceNoEventList", kWrite, "trace.json", "",
     "{\"otherData\":{\"emitted\":0}}", "trace.json has no traceEvents list"},
    {"TraceEventNotObject", kWrite, "trace.json", "",
     "{\"traceEvents\":[1],\"otherData\":{\"emitted\":1}}",
     "traceEvents[0] is not an object"},
    {"TraceEventMissingKey", kReplace, "trace.json", "\"ts\":0,", "",
     "traceEvents[0] missing/invalid 'ts'"},
    {"TraceCompleteEventWithoutDur", kReplace, "trace.json", "\"dur\":5,", "",
     "traceEvents[0]: complete event without dur"},
    {"TraceUnexpectedPhase", kReplace, "trace.json", "\"ph\":\"i\"",
     "\"ph\":\"B\"", "traceEvents[1]: unexpected phase \"B\""},
    {"TraceEmittedMissing", kReplace, "trace.json", "\"emitted\"",
     "\"emitted_was\"", "trace.json otherData.emitted missing"},
    {"TraceEmittedBelowRetained", kReplace, "trace.json", "\"emitted\":2",
     "\"emitted\":1", "emitted < retained event count"},
    // profile.jsonl: one valid callback_histogram line
    {"ProfileLineNotJson", kAppend, "profile.jsonl", "", "nope\n",
     "profile.jsonl:2: not JSON"},
    {"ProfilePhaseRecordRejected", kAppend, "profile.jsonl", "",
     "{\"type\":\"phase\",\"name\":\"b\",\"wall_ns\":5}\n",
     "profile.jsonl:2: unknown record type \"phase\""},
    {"ProfileNoCallbackHistogram", kWrite, "profile.jsonl", "",
     "{\"type\":\"sample\"}\n", "profile.jsonl has no callback_histogram"},
    // provenance.bin: the container (end_us is the first column, one i64
    // row), then the log's own checks
    {"ProvenanceBadMagic", kReplace, "provenance.bin", "ETHCOLS", "ETHPROV",
     "provenance.bin: bad magic"},
    {"ProvenanceUnsupportedVersion", kReplace, "provenance.bin",
     "ETHCOLS\x00\x01"s, "ETHCOLS\x00\x07"s, "unsupported format version 7"},
    {"ProvenanceTruncatedHeader", kWrite, "provenance.bin", "",
     "ETHCOLS\x00\x01\x00\x00\x00\x0d\x00\x00\x00\x06\x00"s,
     "provenance.bin: truncated header"},
    {"ProvenanceHugeRowCount", kReplace, "provenance.bin",
     "end_us\x00\x01\x00\x00\x00\x00\x00"s,
     "end_us\x00\x00\x00\x00\x00\x00\x01"s,
     "end_us' declares 1099511627776 rows"},
    {"ProvenanceTruncatedColumn", kReplace, "provenance.bin",
     "end_us\x00\x01"s, "end_us\x00\x02"s,
     "provenance.bin: truncated column data"},
    {"ProvenanceTrailingByte", kAppend, "provenance.bin", "", "x",
     "provenance.bin: trailing bytes after columns"},
    {"ProvenanceTypeMismatch", kReplace, "provenance.bin", "send_us\x00"s,
     "send_us\x01"s, "column 'send_us' is u64, expected i64"},
    {"ProvenanceUnknownTypeCode", kReplace, "provenance.bin", "send_us\x00"s,
     "send_us\x09"s, "column 'send_us' has unknown type code 9"},
    {"ProvenanceMissingColumn", kReplace, "provenance.bin", "hop", "hip",
     "missing column 'hop'"},
    {"ProvenanceColumnLengthMismatch", kNone, "", "", "",
     "column 'hop' has 2 rows, expected 3",
     [](Logs& l) { l.prov.hop.pop_back(); }},
    {"ProvenanceKindOutOfRange", kNone, "", "", "",
     "provenance.bin: row 0: kind out of range",
     [](Logs& l) { l.prov.kind[0] = 6; }},
    {"ProvenanceDropOutOfRange", kNone, "", "", "",
     "provenance.bin: row 2: drop reason out of range",
     [](Logs& l) { l.prov.drop[2] = 5; }},
    {"ProvenanceArrivalDropMismatch", kNone, "", "", "",
     "row 1: arrival disagrees with the drop reason",
     [](Logs& l) { l.prov.drop[1] = 1; }},
    {"ProvenanceNotInSendOrder", kNone, "", "", "",
     "provenance.bin: row 2: not in send order",
     [](Logs& l) { l.prov.send_us[1] = 50; }},
    // timeseries.bin
    {"TimeSeriesIntervalNotPositive", kNone, "", "", "",
     "interval_us 0 is not positive",
     [](Logs& l) { l.series.interval_us = 0; }},
    {"TimeSeriesDuplicateSeriesName", kReplace, "timeseries.bin", "rame",
     "ramp", "duplicate column name 'ramp'",
     [](Logs& l) { l.series.names[1] = "rame"; }},
    {"TimeSeriesEmptySeriesName", kReplace, "timeseries.bin",
     "\x05\x00\x00\x00level"s, "\x00\x00\x00\x00level"s,
     "timeseries.bin: column 3 has an empty name"},
    {"TimeSeriesTimeColumnDecreases", kNone, "", "", "",
     "time column is not nondecreasing",
     [](Logs& l) { l.series.t_us[2] = 100; }},
    {"TimeSeriesNoBaselineRow", kNone, "", "", "",
     "first sample at t=10, expected the t=0 baseline row",
     [](Logs& l) { l.series.t_us[0] = 10; }},
    // txprov.bin
    {"TxProvDepthTableNotIncreasing", kNone, "", "", "",
     "depth table is not strictly increasing",
     [](Logs& l) { l.tx.depths = {3, 3}; }},
    {"TxProvStageOutOfRange", kNone, "", "", "",
     "txprov.bin: row 1: stage out of range",
     [](Logs& l) { l.tx.stage[1] = 9; }},
    {"TxProvPerTxTimeRegression", kNone, "", "", "",
     "txprov.bin: row 2: time earlier than the tx's prior record",
     [](Logs& l) { l.tx.t_us[2] = 5; }},
    {"TxProvCommitAtUnsweptDepth", kNone, "", "", "",
     "txprov.bin: row 4: commit at a depth outside the table",
     [](Logs& l) { l.tx.info[4] = 12; }},
    // --require / --forbid-nonzero
    {"RequireWithoutMetrics", kRemove, "metrics.jsonl", "", "",
     "--require given but no metrics.jsonl was validated", nullptr,
     {"fault.injected"}},
    {"RequireUnmatched", kNone, "", "", "",
     "metrics.jsonl has no metric matching \"fault\"", nullptr, {"fault"}},
    {"ForbidWithoutMetrics", kRemove, "metrics.jsonl", "", "",
     "--forbid-nonzero given but no metrics.jsonl was validated", nullptr, {},
     {"fault.injected"}},
    {"ForbidNonzeroUnmatched", kNone, "", "", "",
     "--forbid-nonzero txprov.violation: no matching counter recorded",
     nullptr, {}, {"txprov.violation"}},
    {"ForbidNonzeroCounter", kNone, "", "", "",
     "counter fault.injected{kind=node_crash} = 3 (required zero)", nullptr,
     {}, {"fault.injected"}},
};

class ValidateRunDirBreak : public ::testing::TestWithParam<BrokenCase> {};

TEST_P(ValidateRunDirBreak, FailsWithAOneLineReason) {
  const BrokenCase& c = GetParam();
  const fs::path dir = TestDir() / c.name;
  WriteRun(dir, c.mutate);
  const fs::path file = dir / c.file;
  std::string text = c.edit == Edit::kReplace ? ReadAll(file) : "";
  switch (c.edit) {
    case Edit::kNone:
      break;
    case Edit::kReplace:
      ASSERT_NE(text.find(c.from), std::string::npos) << c.file;
      WriteAll(file, text.replace(text.find(c.from), c.from.size(), c.to));
      break;
    case Edit::kAppend:
      WriteAll(file, c.to, std::ios::app);
      break;
    case Edit::kWrite:
      WriteAll(file, c.to);
      break;
    case Edit::kRemove:
      fs::remove(file);
      break;
  }
  const ValidationResult result =
      ValidateRunDir(dir.string(), c.require, c.forbid_nonzero);
  EXPECT_EQ(result.exit_code(), c.exit_code);
  ASSERT_FALSE(result.failures.empty());
  bool found = false;
  for (const std::string& failure : result.failures) {
    EXPECT_EQ(failure.find('\n'), std::string::npos) << failure;
    found = found || failure.find(c.reason) != std::string::npos;
  }
  EXPECT_TRUE(found) << "want \"" << c.reason << "\", first failure \""
                     << result.failures.front() << "\"";
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Checks, ValidateRunDirBreak,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

// A plan source name with a control character reaches manifest.json and
// metrics.jsonl; both must stay valid JSON and keep the name intact.
TEST(ValidateRunDir, PlanSourceNamedWithATabStaysValid) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(20);
  cfg.duration = Duration::Minutes(2);
  cfg.workload_plan.Poisson("east\tcoast", 0.5, 20);
  cfg.telemetry.metrics = true;
  core::Experiment exp{cfg};
  exp.Run();
  const fs::path dir = TestDir() / "tab_source";
  fs::remove_all(dir);
  std::string error;
  ASSERT_TRUE(
      core::WriteRunArtifacts(exp, dir.string(), "validate_test", &error))
      << error;
  const ValidationResult result =
      ValidateRunDir(dir.string(), {"workload.submitted"});
  EXPECT_EQ(result.exit_code(), 0)
      << (result.failures.empty() ? "" : result.failures.front());
  JsonValue manifest;
  ASSERT_TRUE(ParseJson(ReadAll(dir / "manifest.json"), &manifest));
  const JsonValue* extra = manifest.Find("extra");
  ASSERT_NE(extra, nullptr);
  ASSERT_NE(extra->Find("workload_source.0"), nullptr);
  EXPECT_EQ(extra->Find("workload_source.0")->string.rfind("east\tcoast:", 0),
            0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ethsim::obs
