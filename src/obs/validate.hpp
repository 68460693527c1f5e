// Run-directory validator behind `ethsim_inspect <dir> --validate`.
//
// manifest.json must exist. It is checked for the ethsim-run-manifest-v1
// keys, 64-hex digests, telemetry flags and watermarks; every artifact its
// telemetry flags enable must be present. Each artifact present is checked:
// metrics.jsonl (record schemas, histogram bucket sums, unique names),
// trace.json (event keys and phases, otherData.emitted), profile.jsonl
// (record types), and the three binary logs through their validating
// readers.
//
// `require` names metrics that must appear in metrics.jsonl, as the exact
// name or its labeled form ("fault.injected" matches
// "fault.injected{kind=node_crash}"). `forbid_nonzero` names counters (same
// matching) that must exist and all be zero.
#pragma once

#include <string>
#include <vector>

namespace ethsim::obs {

struct ValidationResult {
  std::vector<std::string> failures;  // one line per broken check
  bool io_error = false;              // no readable manifest.json

  // The CLI exit code: 0 valid, 1 invalid, 2 unreadable directory.
  int exit_code() const { return io_error ? 2 : failures.empty() ? 0 : 1; }
};

ValidationResult ValidateRunDir(const std::string& dir,
                                const std::vector<std::string>& require = {},
                                const std::vector<std::string>& forbid_nonzero = {});

}  // namespace ethsim::obs
