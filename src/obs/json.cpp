#include "obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace ethsim::obs {

namespace {

// Nesting bound: keeps a hostile document from exhausting the stack.
constexpr int kMaxDepth = 256;

void AppendUtf8(std::string* out, std::uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

bool JsonParser::Fail(const char* what) {
  if (error_.empty())
    error_ = "offset " + std::to_string(pos_) + ": " + what;
  return false;
}

void JsonParser::SkipWs() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
    ++pos_;
  }
}

bool JsonParser::Consume(char c) {
  SkipWs();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonParser::Begin(char open) {
  if (!ok()) return false;
  if (!Consume(open)) return Fail(open == '{' ? "expected '{'" : "expected '['");
  if (++depth_ > kMaxDepth) return Fail("nesting too deep");
  opened_ = true;
  return true;
}

bool JsonParser::Next(char close) {
  if (!ok()) return false;
  if (Consume(close)) {
    opened_ = false;
    --depth_;
    return false;
  }
  if (!opened_ && !Consume(',')) return Fail("expected ',' or a closing bracket");
  opened_ = false;
  return true;
}

bool JsonParser::NextMember(std::string* key) {
  if (!Next('}')) return false;
  SkipWs();
  if (pos_ >= text_.size() || text_[pos_] != '"')
    return Fail("expected a member name");
  if (!String(key)) return false;
  if (!Consume(':')) return Fail("expected ':'");
  return true;
}

bool JsonParser::NextItem() { return Next(']'); }

bool JsonParser::AtEnd() {
  SkipWs();
  return ok() && pos_ == text_.size();
}

bool JsonParser::Literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return Fail("invalid literal");
  pos_ += word.size();
  return true;
}

bool JsonParser::String(std::string* out) {
  out->clear();
  ++pos_;  // opening quote
  while (pos_ < text_.size()) {
    // Copy the run up to the next quote, escape or control character.
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20)
      ++pos_;
    out->append(text_.substr(start, pos_ - start));
    if (pos_ >= text_.size()) break;
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c != '\\') return Fail("unescaped control character in string");
    if (++pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        const auto hex4 = [this](std::uint32_t* cp) {
          if (pos_ + 4 > text_.size()) return false;
          const auto [end, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, *cp, 16);
          if (ec != std::errc() || end != text_.data() + pos_ + 4)
            return false;
          pos_ += 4;
          return true;
        };
        std::uint32_t cp = 0;
        if (!hex4(&cp)) return Fail("bad \\u escape");
        if (cp >= 0xD800 && cp < 0xDC00) {
          // High surrogate: a low surrogate must follow.
          std::uint32_t low = 0;
          if (text_.substr(pos_, 2) != "\\u") return Fail("lone surrogate");
          pos_ += 2;
          if (!hex4(&low) || low < 0xDC00 || low >= 0xE000)
            return Fail("lone surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp < 0xE000) {
          return Fail("lone surrogate");
        }
        AppendUtf8(out, cp);
        break;
      }
      default:
        return Fail("bad escape");
    }
  }
  return Fail("unterminated string");
}

bool JsonParser::Number(JsonValue* out) {
  const std::size_t start = pos_;
  const auto digits = [this] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '0') {
    ++pos_;
  } else if (!digits()) {
    return Fail("invalid value");
  }
  bool integral = true;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    integral = false;
    if (!digits()) return Fail("invalid number");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    integral = false;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (!digits()) return Fail("invalid number");
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (integral) {
    if (const auto [end, ec] = std::from_chars(first, last, out->integer);
        ec == std::errc() && end == last) {
      out->type = JsonValue::Type::kInt;
      if (out->integer >= 0)
        out->uinteger = static_cast<std::uint64_t>(out->integer);
      out->number = static_cast<double>(out->integer);
      return true;
    }
    if (const auto [end, ec] = std::from_chars(first, last, out->uinteger);
        ec == std::errc() && end == last) {
      out->type = JsonValue::Type::kUint;
      out->number = static_cast<double>(out->uinteger);
      return true;
    }
  }
  out->type = JsonValue::Type::kDouble;
  out->number = std::strtod(std::string(first, last).c_str(), nullptr);
  return true;
}

bool JsonParser::Parse(JsonValue* out) {
  if (!ok()) return false;
  *out = JsonValue{};
  SkipWs();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{': {
      out->type = JsonValue::Type::kObject;
      BeginObject();
      std::string key;
      while (NextMember(&key)) {
        out->members.emplace_back(std::move(key), JsonValue{});
        if (!Parse(&out->members.back().second)) return false;
      }
      return ok();
    }
    case '[': {
      out->type = JsonValue::Type::kArray;
      BeginArray();
      while (NextItem()) {
        out->items.emplace_back();
        if (!Parse(&out->items.back())) return false;
      }
      return ok();
    }
    case '"':
      out->type = JsonValue::Type::kString;
      return String(&out->string);
    case 't':
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Literal("true");
    case 'f':
      out->type = JsonValue::Type::kBool;
      return Literal("false");
    case 'n':
      return Literal("null");
    default:
      return Number(out);
  }
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonParser parser(text);
  if (parser.Parse(out) && parser.AtEnd()) return true;
  if (error != nullptr)
    *error = parser.ok() ? "trailing characters after the value"
                         : parser.error();
  return false;
}

bool ReadTextFile(const std::string& path, std::string* out,
                  std::string* error) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (!ec && in) {
    out->resize(static_cast<std::size_t>(size));
    in.read(out->data(), static_cast<std::streamsize>(size));
  }
  if (ec || !in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return true;
}

}  // namespace ethsim::obs
