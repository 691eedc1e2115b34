/**
 * @file
 * The one JSON reader and writer of the project. Topology files
 * come in through parse(); stats.json, bench --json records and
 * Chrome traces go out through writeString()/writeNumber(); the
 * offline tools (pciesim-report, json_validate) read with the same
 * parse(). Dependency-free, so those tools link this library alone.
 *
 * The reader is strict RFC 8259: no trailing commas, no raw control
 * characters inside strings, no leading zeros, no numbers beyond a
 * double's range, no duplicate object keys, and nesting deeper than
 * maxDepth is an error rather than a stack overflow. Every error
 * carries the 1-based line it was found on, and every value
 * remembers the line it started on, so callers can cite file:line
 * for syntax and semantic errors alike.
 */

#ifndef PCIESIM_SIM_JSON_HH
#define PCIESIM_SIM_JSON_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pciesim::json
{

/**
 * One parsed JSON value. Objects keep insertion order so the
 * topology builder can walk nodes in declaration order.
 */
struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;
    /** 1-based line of the value's first character (0: synthetic). */
    unsigned line = 0;

    /** Key lookup on an object; null when absent. */
    const Value *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : obj) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }

    /** The number under @p key, or @p fallback if absent/not one. */
    double
    numberOr(const std::string &key, double fallback) const
    {
        const Value *v = find(key);
        return (v && v->type == Type::Number) ? v->number : fallback;
    }

    /** The string under @p key, or @p fallback if absent/not one. */
    std::string
    stringOr(const std::string &key,
             const std::string &fallback) const
    {
        const Value *v = find(key);
        return (v && v->type == Type::String) ? v->str : fallback;
    }

    const char *typeName() const;
};

/** A syntax error: where the reader stopped and why. */
struct Error
{
    /** 1-based line of the failure point. */
    unsigned line = 0;
    std::string what;
};

/** Deepest array/object nesting parse() accepts. */
constexpr unsigned maxDepth = 256;

/**
 * Parse @p text as exactly one JSON document into @p out.
 * @return The first syntax error, or nullopt on success.
 */
std::optional<Error> parse(const std::string &text, Value &out);

/**
 * @p s as a quoted JSON string literal: '"' and '\' are
 * backslash-escaped, newline and tab become \n and \t, other bytes
 * below 0x20 become \u00XX, everything else passes through.
 */
std::string writeString(std::string_view s);

/**
 * @p v as a finite, locale-independent JSON number (12 significant
 * digits; NaN and infinities are written as 0).
 */
std::string writeNumber(double v);

} // namespace pciesim::json

#endif // PCIESIM_SIM_JSON_HH
