#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <locale>
#include <sstream>

namespace pciesim::json
{

const char *
Value::typeName() const
{
    static const char *const names[] = {"null",   "bool",  "number",
                                        "string", "array", "object"};
    return names[static_cast<int>(type)];
}

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

int
hexValue(char c)
{
    if (isDigit(c))
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/**
 * Recursive-descent reader over one document. The first error is
 * thrown as an Error and caught in parse(), so no partial value
 * escapes; recursion is bounded by maxDepth.
 */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    void
    parse(Value &out)
    {
        parseValue(out, 0);
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
    }

  private:
    [[noreturn]] void
    fail(std::string what)
    {
        throw Error{line_, std::move(what)};
    }

    /** RFC 8259 whitespace only: space, tab, newline, return. */
    void
    skipSpace()
    {
        for (; pos_ < text_.size(); ++pos_) {
            char c = text_[pos_];
            if (c == '\n')
                ++line_;
            else if (c != ' ' && c != '\t' && c != '\r')
                break;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    void
    parseValue(Value &v, unsigned depth)
    {
        char c = peek();
        v.line = line_;
        if (c == '{' || c == '[') {
            if (depth == maxDepth)
                fail("nesting too deep");
            if (c == '{')
                parseObject(v, depth + 1);
            else
                parseArray(v, depth + 1);
        } else if (c == '"') {
            v.type = Value::Type::String;
            parseString(v.str);
        } else if (c == '-' || isDigit(c)) {
            parseNumber(v);
        } else if (literal("true")) {
            v.type = Value::Type::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.type = Value::Type::Bool;
        } else if (!literal("null")) {
            fail("unexpected character");
        }
    }

    void
    parseObject(Value &out, unsigned depth)
    {
        out.type = Value::Type::Object;
        ++pos_; // '{'
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            if (peek() != '"')
                fail("expected object key");
            unsigned key_line = line_;
            std::string key;
            parseString(key);
            if (out.find(key) != nullptr) {
                line_ = key_line;
                fail("duplicate key '" + key + "'");
            }
            if (peek() != ':')
                fail("expected ':' after object key");
            ++pos_;
            out.obj.emplace_back(std::move(key), Value());
            parseValue(out.obj.back().second, depth);
            char c = peek();
            ++pos_;
            if (c == '}')
                return;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    void
    parseArray(Value &out, unsigned depth)
    {
        out.type = Value::Type::Array;
        ++pos_; // '['
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            out.arr.emplace_back();
            parseValue(out.arr.back(), depth);
            char c = peek();
            ++pos_;
            if (c == ']')
                return;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    void
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return;
            if (c == '\n')
                fail("unterminated string");
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
            if (e == 'u') {
                out += parseUnicodeEscape();
                continue;
            }
            constexpr std::string_view from = "\"\\/bfnrt";
            constexpr std::string_view to = "\"\\/\b\f\n\r\t";
            std::size_t k = from.find(e);
            if (k == std::string_view::npos)
                fail("bad string escape");
            out += to[k];
        }
        fail("unterminated string");
    }

    /** The four hex digits after "\u": ASCII decodes, the rest
     *  (the simulator writes only ASCII) folds to '?'. */
    char
    parseUnicodeEscape()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            int h = pos_ < text_.size() ? hexValue(text_[pos_]) : -1;
            if (h < 0)
                fail("bad \\u escape");
            code = code * 16 + static_cast<unsigned>(h);
            ++pos_;
        }
        return code < 0x80 ? static_cast<char>(code) : '?';
    }

    /** Advance over a run of digits; false if there was none. */
    bool
    digits()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            ++pos_;
        return pos_ > start;
    }

    void
    parseNumber(Value &out)
    {
        std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        std::size_t int_start = pos_;
        if (!digits())
            fail("bad number");
        if (text_[int_start] == '0' && pos_ - int_start > 1)
            fail("bad number (leading zero)");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                fail("bad number fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                fail("bad number exponent");
        }
        out.type = Value::Type::Number;
        // strtod can read past pos_ only into a "0x" hex prefix,
        // and the 'x' then fails the document anyway.
        out.number = std::strtod(text_.c_str() + start, nullptr);
        if (std::isinf(out.number))
            fail("number out of range");
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
};

} // namespace

std::optional<Error>
parse(const std::string &text, Value &out)
{
    out = Value();
    try {
        Parser(text).parse(out);
    } catch (Error &e) {
        out = Value();
        return std::move(e);
    }
    return std::nullopt;
}

std::string
writeString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
writeNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream tmp;
    tmp.imbue(std::locale::classic());
    tmp.precision(12);
    tmp << v;
    return tmp.str();
}

} // namespace pciesim::json
