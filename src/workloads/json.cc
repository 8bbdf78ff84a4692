#include "json.hh"

#include <cctype>
#include <stdexcept>

namespace skipit::workloads {

namespace {

class JsonParser
{
  public:
    JsonParser(const std::string &text, const std::string &what)
        : text_(text), what_(what)
    {
    }

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    const std::string &text_;
    const std::string &what_;
    std::size_t pos_ = 0;

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw std::runtime_error(what_ + ": " + msg + " (at offset " +
                                 std::to_string(pos_) + ")");
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            parseLiteral("null");
            return JsonValue{};
          default:
            return parseNumber();
        }
    }

    void
    parseLiteral(const char *lit)
    {
        for (const char *p = lit; *p != '\0'; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("expected '") + lit + "'");
            ++pos_;
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (text_[pos_] == 't') {
            parseLiteral("true");
            v.boolean = true;
        } else {
            parseLiteral("false");
        }
        return v;
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.type = JsonValue::Type::String;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("dangling escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    c = e;
                    break;
                  case 'n':
                    c = '\n';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  default:
                    fail("unsupported string escape");
                }
            }
            v.text.push_back(c);
        }
        expect('"');
        return v;
    }

    /** Take @p c if it is the next character (no whitespace skip). */
    bool
    take(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    /** Take a run of digits. @return false if there was none */
    bool
    takeDigits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        return pos_ != start;
    }

    /** Can text_[i] occur in a number? */
    bool
    numberChar(std::size_t i) const
    {
        if (i >= text_.size())
            return false;
        const char c = text_[i];
        return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
               c == 'e' || c == 'E' || c == '+' || c == '-';
    }

    /** Take RFC 8259's number,
     *  -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which no number
     *  character may follow. @return false where the text breaks it */
    bool
    takeNumber()
    {
        take('-');
        if (!take('0') && !takeDigits())
            return false;
        if (take('.') && !takeDigits())
            return false;
        if (take('e') || take('E')) {
            if (!take('+'))
                take('-');
            if (!takeDigits())
                return false;
        }
        return !numberChar(pos_);
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!takeNumber()) {
            std::size_t end = start;
            while (numberChar(end) ||
                   (end < text_.size() &&
                    std::isalpha(static_cast<unsigned char>(text_[end])))) {
                ++end;
            }
            pos_ = start;
            if (end == start ||
                std::isalpha(static_cast<unsigned char>(text_[start])))
                fail("expected a value");
            fail("malformed number '" + text_.substr(start, end - start) +
                 "'");
        }
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.text = text_.substr(start, pos_ - start);
        return v;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        if (consume(']'))
            return v;
        for (;;) {
            v.items.push_back(parseValue());
            if (consume(']'))
                return v;
            expect(',');
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        if (consume('}'))
            return v;
        for (;;) {
            const JsonValue key = parseString();
            expect(':');
            v.fields.emplace_back(key.text, parseValue());
            if (consume('}'))
                return v;
            expect(',');
        }
    }
};

} // namespace

JsonValue
parseJson(const std::string &text, const std::string &what)
{
    return JsonParser(text, what).parse();
}

} // namespace skipit::workloads
