#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/logging.hh"

namespace alphapim::telemetry
{

// ---------------------------------------------------------------- writer

std::string
JsonWriter::quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
JsonWriter::number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    // Shortest representation that round-trips a double.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = std::strtod(buf, nullptr);
    if (parsed == v) {
        // Try shorter forms for readability.
        for (int prec = 1; prec < 17; ++prec) {
            char shorter[32];
            std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
            if (std::strtod(shorter, nullptr) == v)
                return shorter;
        }
    }
    return buf;
}

void
JsonWriter::separate()
{
    if (stack_.empty())
        return;
    Frame &top = stack_.back();
    if (top.isObject) {
        if (top.expectValue) {
            top.expectValue = false;
            return; // value directly after its key
        }
        panic("JsonWriter: object value without a key");
    }
    if (top.items > 0)
        out_.push_back(',');
    ++top.items;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_.push_back('{');
    stack_.push_back({true, 0, false});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    ALPHA_ASSERT(!stack_.empty() && stack_.back().isObject &&
                     !stack_.back().expectValue,
                 "endObject outside an object or after a dangling key");
    stack_.pop_back();
    out_.push_back('}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_.push_back('[');
    stack_.push_back({false, 0, false});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    ALPHA_ASSERT(!stack_.empty() && !stack_.back().isObject,
                 "endArray outside an array");
    stack_.pop_back();
    out_.push_back(']');
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    ALPHA_ASSERT(!stack_.empty() && stack_.back().isObject &&
                     !stack_.back().expectValue,
                 "key() outside an object or after another key");
    Frame &top = stack_.back();
    if (top.items > 0)
        out_.push_back(',');
    ++top.items;
    top.expectValue = true;
    out_ += quote(k);
    out_.push_back(':');
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    out_ += quote(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    out_ += number(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

// ---------------------------------------------------------------- parser

/** Recursive-descent parser over a string_view. */
class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (error_) {
            *error_ = std::string(msg) + " at offset " +
                      std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a') + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A') + 10;
                    else
                        return fail("bad \\u escape digit");
                }
                // UTF-8 encode (surrogate pairs not needed for the
                // ASCII-ish telemetry output; encode BMP directly).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected number");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.type_ = JsonValue::Type::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue member;
                if (!parseValue(member))
                    return false;
                out.members_.emplace_back(std::move(key),
                                          std::move(member));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out.type_ = JsonValue::Type::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue item;
                if (!parseValue(item))
                    return false;
                out.items_.push_back(std::move(item));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.type_ = JsonValue::Type::String;
            return parseString(out.string_);
        }
        if (parseLiteral("true")) {
            out.type_ = JsonValue::Type::Bool;
            out.boolean_ = true;
            return true;
        }
        if (parseLiteral("false")) {
            out.type_ = JsonValue::Type::Bool;
            out.boolean_ = false;
            return true;
        }
        if (parseLiteral("null")) {
            out.type_ = JsonValue::Type::Null;
            return true;
        }
        out.type_ = JsonValue::Type::Number;
        return parseNumber(out.number_);
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

bool
JsonValue::parse(std::string_view text, JsonValue &out,
                 std::string *error)
{
    out = JsonValue();
    JsonParser parser(text, error);
    return parser.parseDocument(out);
}

// ---------------------------------------------------------- field lists

std::string
encodeValue(FieldPtr m)
{
    return std::visit(
        [](auto *p) -> std::string {
            using V = std::remove_pointer_t<decltype(p)>;
            if constexpr (std::is_same_v<V, std::string>)
                return JsonWriter::quote(*p);
            else if constexpr (std::is_same_v<V, double>)
                return JsonWriter::number(*p);
            else
                return std::to_string(*p);
        },
        m);
}

double
numberValue(FieldPtr m)
{
    return std::visit(
        [](auto *p) -> double {
            if constexpr (std::is_same_v<decltype(p), std::string *>)
                return 0.0;
            else
                return static_cast<double>(*p);
        },
        m);
}

bool
readValue(const JsonValue *v, FieldPtr m, std::string_view key,
          std::string *error)
{
    const bool fits = !v || std::visit(
        [v](auto *p) {
            using V = std::remove_pointer_t<decltype(p)>;
            if constexpr (std::is_same_v<V, std::string>) {
                if (v->isString())
                    *p = v->asString();
            } else if (v->isNumber()) {
                const double x = v->asNumber();
                if constexpr (!std::is_same_v<V, double>) {
                    // First whole number past V's range, exact as a
                    // double.
                    const double limit =
                        static_cast<double>(std::numeric_limits<V>::max()) +
                        1.0;
                    if (!(x >= 0.0 && x < limit && x == std::floor(x)))
                        return false;
                }
                *p = static_cast<V>(x);
            }
            return true;
        },
        m);
    if (!fits && error) {
        *error = std::string(key) + ": " +
                 JsonWriter::number(v->asNumber()) +
                 " does not fit an unsigned integer";
    }
    return fits;
}

} // namespace alphapim::telemetry
