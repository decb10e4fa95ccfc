#include "report/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vpprof
{
namespace report
{

const JsonValue *
JsonValue::get(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = object_.find(std::string(key));
    return it == object_.end() ? nullptr : &it->second;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = get(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
JsonValue::stringOr(std::string_view key, std::string_view fallback) const
{
    const JsonValue *v = get(key);
    return v && v->isString() ? v->asString() : std::string(fallback);
}

namespace
{

/** Recursive-descent RFC 8259 parser over a string_view. */
struct Parser
{
    const char *cur;
    const char *end;
    const char *begin;
    std::string error;

    static constexpr int kMaxDepth = 128;

    bool
    fail(const std::string &what)
    {
        if (error.empty()) {
            error = what + " at offset " +
                    std::to_string(cur - begin);
        }
        return false;
    }

    void
    skipWs()
    {
        while (cur < end && (*cur == ' ' || *cur == '\t' ||
                             *cur == '\n' || *cur == '\r'))
            ++cur;
    }

    bool
    consume(char c)
    {
        if (cur < end && *cur == c) {
            ++cur;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (static_cast<size_t>(end - cur) < len ||
            std::memcmp(cur, word, len) != 0)
            return fail(std::string("expected '") + word + "'");
        cur += len;
        return true;
    }

    bool
    parseHex4(unsigned &out)
    {
        if (end - cur < 4)
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = cur[i];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A') + 10;
            else
                return fail("bad hex digit in \\u escape");
            out = out * 16 + digit;
        }
        cur += 4;
        return true;
    }

    static void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (cur < end) {
            unsigned char c = static_cast<unsigned char>(*cur);
            if (c == '"') {
                ++cur;
                return true;
            }
            if (c == '\\') {
                ++cur;
                if (cur >= end)
                    break;
                char esc = *cur++;
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                      unsigned cp = 0;
                      if (!parseHex4(cp))
                          return false;
                      if (cp >= 0xD800 && cp <= 0xDBFF) {
                          // High surrogate: a low one must follow.
                          if (end - cur < 2 || cur[0] != '\\' ||
                              cur[1] != 'u')
                              return fail("lone high surrogate");
                          cur += 2;
                          unsigned lo = 0;
                          if (!parseHex4(lo))
                              return false;
                          if (lo < 0xDC00 || lo > 0xDFFF)
                              return fail("bad low surrogate");
                          cp = 0x10000 + ((cp - 0xD800) << 10) +
                               (lo - 0xDC00);
                      } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                          return fail("lone low surrogate");
                      }
                      appendUtf8(out, cp);
                      break;
                  }
                  default:
                      return fail("unknown escape");
                }
                continue;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            out.push_back(static_cast<char>(c));
            ++cur;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const char *start = cur;
        if (consume('-')) {}
        if (cur >= end || !std::isdigit(static_cast<unsigned char>(*cur)))
            return fail("malformed number");
        if (*cur == '0') {
            ++cur;
        } else {
            while (cur < end &&
                   std::isdigit(static_cast<unsigned char>(*cur)))
                ++cur;
        }
        if (consume('.')) {
            if (cur >= end ||
                !std::isdigit(static_cast<unsigned char>(*cur)))
                return fail("malformed fraction");
            while (cur < end &&
                   std::isdigit(static_cast<unsigned char>(*cur)))
                ++cur;
        }
        if (cur < end && (*cur == 'e' || *cur == 'E')) {
            ++cur;
            if (cur < end && (*cur == '+' || *cur == '-'))
                ++cur;
            if (cur >= end ||
                !std::isdigit(static_cast<unsigned char>(*cur)))
                return fail("malformed exponent");
            while (cur < end &&
                   std::isdigit(static_cast<unsigned char>(*cur)))
                ++cur;
        }
        std::string text(start, cur);
        out = JsonValue(std::strtod(text.c_str(), nullptr));
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (cur >= end)
            return fail("unexpected end of input");
        switch (*cur) {
          case '{': {
              ++cur;
              JsonValue::Object obj;
              skipWs();
              if (consume('}')) {
                  out = JsonValue(std::move(obj));
                  return true;
              }
              while (true) {
                  skipWs();
                  std::string key;
                  if (!parseString(key))
                      return false;
                  skipWs();
                  if (!consume(':'))
                      return fail("expected ':' after object key");
                  JsonValue value;
                  if (!parseValue(value, depth + 1))
                      return false;
                  obj[std::move(key)] = std::move(value);
                  skipWs();
                  if (consume(','))
                      continue;
                  if (consume('}'))
                      break;
                  return fail("expected ',' or '}' in object");
              }
              out = JsonValue(std::move(obj));
              return true;
          }
          case '[': {
              ++cur;
              JsonValue::Array arr;
              skipWs();
              if (consume(']')) {
                  out = JsonValue(std::move(arr));
                  return true;
              }
              while (true) {
                  JsonValue value;
                  if (!parseValue(value, depth + 1))
                      return false;
                  arr.push_back(std::move(value));
                  skipWs();
                  if (consume(','))
                      continue;
                  if (consume(']'))
                      break;
                  return fail("expected ',' or ']' in array");
              }
              out = JsonValue(std::move(arr));
              return true;
          }
          case '"': {
              std::string s;
              if (!parseString(s))
                  return false;
              out = JsonValue(std::move(s));
              return true;
          }
          case 't':
              if (!literal("true", 4))
                  return false;
              out = JsonValue(true);
              return true;
          case 'f':
              if (!literal("false", 5))
                  return false;
              out = JsonValue(false);
              return true;
          case 'n':
              if (!literal("null", 4))
                  return false;
              out = JsonValue();
              return true;
          default:
              return parseNumber(out);
        }
    }
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    Parser p{text.data(), text.data() + text.size(), text.data(), {}};
    JsonValue value;
    if (!p.parseValue(value, 0)) {
        if (error)
            *error = p.error;
        return std::nullopt;
    }
    p.skipWs();
    if (p.cur != p.end) {
        p.fail("trailing garbage after document");
        if (error)
            *error = p.error;
        return std::nullopt;
    }
    return value;
}

std::string
formatJsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // Exact small integers print without a decimal point: every
    // counter the benches emit stays bit-stable through text.
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", value);
        return buf;
    }
    // Shortest precision that survives a strtod round trip.
    char buf[40];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            return buf;
    }
    return buf;
}

std::string
quoteJsonString(std::string_view s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out += "\"";
    return out;
}

} // namespace report
} // namespace vpprof
