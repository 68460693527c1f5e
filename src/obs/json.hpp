// The simulator's JSON reader and JSON string writer (RFC 8259).
//
// JsonString is the string escaper of the manifest, metrics, trace, fuzz
// report and ethsim_inspect writers: it escapes '"', '\' and every control
// character below U+0020, as RFC 8259 §7 requires.
//
// JsonParser reads a document in one pass over a string_view. It can build a
// JsonValue for a whole document (manifest.json, one metrics.jsonl line) or be
// walked member by member, so a 100 MB trace.json is checked one event at a
// time instead of being held as a tree.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ethsim::obs {

// `s` as a quoted, escaped JSON string literal.
std::string JsonString(std::string_view s);

struct JsonValue {
  // kInt is a number written without fraction or exponent that fits an
  // int64, and kUint one above INT64_MAX that fits a uint64 (a full-range
  // seed); every other number is kDouble.
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  std::int64_t integer = 0;    // kInt
  std::uint64_t uinteger = 0;  // kUint, and every kInt >= 0
  double number = 0;           // set for kInt and kUint too
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;  // document order

  bool is_int() const { return type == Type::kInt; }
  // A non-negative integer, exact in `uinteger`.
  bool is_uint() const {
    return type == Type::kUint || (type == Type::kInt && integer >= 0);
  }
  bool is_string() const { return type == Type::kString; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_object() const { return type == Type::kObject; }
  // First member named `key` of an object; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  // Parses the next value into `out`.
  bool Parse(JsonValue* out);
  // Object walk: BeginObject, then NextMember until it returns false (end of
  // object or error — check ok()); Parse each member's value.
  bool BeginObject() { return Begin('{'); }
  bool NextMember(std::string* key);
  // Array walk, same protocol.
  bool BeginArray() { return Begin('['); }
  bool NextItem();
  // Only whitespace remains.
  bool AtEnd();

  bool ok() const { return error_.empty(); }
  // "offset N: what went wrong"; empty while ok.
  const std::string& error() const { return error_; }

 private:
  bool Fail(const char* what);
  bool Begin(char open);
  void SkipWs();
  bool Consume(char c);
  bool String(std::string* out);
  bool Number(JsonValue* out);
  bool Literal(std::string_view word);
  bool Next(char close);

  std::string_view text_;
  std::size_t pos_ = 0;
  bool opened_ = false;  // a container was just opened: no ',' expected
  int depth_ = 0;
  std::string error_;
};

// Parses all of `text` as one value. On failure `error` (when non-null)
// holds the parser's message.
bool ParseJson(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

// Whole-file read; false (error = "cannot open <path>") when unreadable.
bool ReadTextFile(const std::string& path, std::string* out,
                  std::string* error = nullptr);

}  // namespace ethsim::obs
