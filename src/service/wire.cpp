#include "service/wire.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "runtime/report_io.h"

namespace galois::service::wire {

namespace {

/** Recursive-descent JSON parser over a byte range. */
class Parser
{
  public:
    Parser(const std::string& text, std::string& err)
        : s_(text), err_(err)
    {}

    Value
    document()
    {
        Value v = value();
        if (!err_.empty())
            return v;
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage after document");
        return v;
    }

  private:
    void
    fail(const std::string& why)
    {
        if (err_.empty())
            err_ = why + " at byte " + std::to_string(pos_);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value
    value()
    {
        skipWs();
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
            return {};
        }
        const char c = s_[pos_];
        switch (c) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return stringValue();
          case 't':
          case 'f':
            return boolValue();
          case 'n':
            if (literal("null"))
                return {};
            fail("bad literal");
            return {};
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return numberValue();
            fail(std::string("unexpected character '") + c + "'");
            return {};
        }
    }

    Value
    boolValue()
    {
        Value v;
        v.type = Value::Type::Bool;
        if (literal("true")) {
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.boolean = false;
            return v;
        }
        fail("bad literal");
        return {};
    }

    Value
    numberValue()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string tok = s_.substr(start, pos_ - start);
        const std::size_t d = tok.size() && tok[0] == '-' ? 1 : 0;
        if (d + 1 < tok.size() && tok[d] == '0' && tok[d + 1] >= '0' &&
            tok[d + 1] <= '9') {
            fail("leading zero in number '" + tok + "'");
            return {};
        }
        char* end = nullptr;
        errno = 0;
        Value v;
        v.type = Value::Type::Number;
        v.number = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || errno == ERANGE) {
            fail("bad number '" + tok + "'");
            return {};
        }
        if (integral) {
            errno = 0;
            char* iend = nullptr;
            const long long i = std::strtoll(tok.c_str(), &iend, 10);
            if (iend == tok.c_str() + tok.size() && errno != ERANGE) {
                v.integer = i;
                v.isInteger = true;
            }
        }
        return v;
    }

    Value
    stringValue()
    {
        Value v;
        v.type = Value::Type::String;
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    break;
                const char e = s_[pos_++];
                switch (e) {
                  case '"': v.string += '"'; break;
                  case '\\': v.string += '\\'; break;
                  case '/': v.string += '/'; break;
                  case 'b': v.string += '\b'; break;
                  case 'f': v.string += '\f'; break;
                  case 'n': v.string += '\n'; break;
                  case 'r': v.string += '\r'; break;
                  case 't': v.string += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size()) {
                        fail("truncated \\u escape");
                        return {};
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad \\u escape");
                            return {};
                        }
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs
                    // are not needed by the protocol; encode verbatim).
                    if (code < 0x80) {
                        v.string += static_cast<char>(code);
                    } else if (code < 0x800) {
                        v.string += static_cast<char>(0xC0 | (code >> 6));
                        v.string +=
                            static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        v.string += static_cast<char>(0xE0 | (code >> 12));
                        v.string += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        v.string +=
                            static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail(std::string("bad escape '\\") + e + "'");
                    return {};
                }
            } else {
                v.string += c;
            }
        }
        fail("unterminated string");
        return {};
    }

    Value
    array()
    {
        Value v;
        v.type = Value::Type::Array;
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return v;
        for (;;) {
            v.array.push_back(value());
            if (!err_.empty())
                return {};
            if (consume(']'))
                return v;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return {};
            }
        }
    }

    Value
    object()
    {
        Value v;
        v.type = Value::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return v;
        for (;;) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                fail("expected object key");
                return {};
            }
            Value key = stringValue();
            if (!err_.empty())
                return {};
            if (!consume(':')) {
                fail("expected ':' after object key");
                return {};
            }
            v.members.emplace_back(std::move(key.string), value());
            if (!err_.empty())
                return {};
            if (consume('}'))
                return v;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return {};
            }
        }
    }

    const std::string& s_;
    std::string& err_;
    std::size_t pos_ = 0;
};

} // namespace

const Value*
Value::find(const std::string& key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto& [k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
Value::asString(const std::string& dflt) const
{
    return type == Type::String ? string : dflt;
}

std::uint64_t
Value::asU64(std::uint64_t dflt) const
{
    if (type == Type::Number && isInteger && integer >= 0)
        return static_cast<std::uint64_t>(integer);
    return dflt;
}

std::int64_t
Value::asI64(std::int64_t dflt) const
{
    if (type == Type::Number && isInteger)
        return integer;
    return dflt;
}

double
Value::asDouble(double dflt) const
{
    return type == Type::Number ? number : dflt;
}

bool
Value::asBool(bool dflt) const
{
    return type == Type::Bool ? boolean : dflt;
}

Value
parse(const std::string& text, std::string& err)
{
    err.clear();
    Parser p(text, err);
    Value v = p.document();
    return err.empty() ? v : Value{};
}

std::string
quote(const std::string& s)
{
    return '"' + runtime::jsonEscape(s) + '"';
}

} // namespace galois::service::wire
