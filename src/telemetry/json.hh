/**
 * @file
 * Minimal JSON support for the telemetry subsystem: a streaming
 * writer (compact, escaped, round-trippable doubles) and a small
 * recursive-descent parser used by tests and tooling to validate the
 * exported Chrome traces and JSONL records, plus the field lists that
 * map a record block's JSON keys to struct members. No external
 * dependencies.
 */

#ifndef ALPHA_PIM_TELEMETRY_JSON_HH
#define ALPHA_PIM_TELEMETRY_JSON_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace alphapim::telemetry
{

/**
 * Streaming JSON writer. Builds a compact single-line document;
 * commas and quoting are handled by the writer, so call sites only
 * describe structure. Non-finite doubles are emitted as null (JSON
 * has no NaN/Inf).
 */
class JsonWriter
{
  public:
    /** Open an object ("{"). */
    JsonWriter &beginObject();

    /** Close the innermost object. */
    JsonWriter &endObject();

    /** Open an array ("["). */
    JsonWriter &beginArray();

    /** Close the innermost array. */
    JsonWriter &endArray();

    /** Write an object key; must be followed by a value. */
    JsonWriter &key(std::string_view k);

    /** Write a string value. */
    JsonWriter &value(std::string_view v);

    /** Write a string value (overload for literals). */
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }

    /** Write a numeric value with round-trip precision. */
    JsonWriter &value(double v);

    /** Write an unsigned integer value. */
    JsonWriter &value(std::uint64_t v);

    /** Write a signed integer value. */
    JsonWriter &value(std::int64_t v);

    /** Write a boolean value. */
    JsonWriter &value(bool v);

    /** Write a null value. */
    JsonWriter &null();

    /** Splice an already-encoded JSON fragment as a value. */
    JsonWriter &rawValue(std::string_view json);

    /** The document built so far. */
    const std::string &str() const { return out_; }

    /** Escape and quote `s` as a standalone JSON string. */
    static std::string quote(std::string_view s);

    /** Encode a double as a standalone JSON number (null if
     * non-finite). */
    static std::string number(double v);

  private:
    void separate();

    struct Frame
    {
        bool isObject = false;
        std::size_t items = 0;
        bool expectValue = false; ///< a key was just written
    };

    std::string out_;
    std::vector<Frame> stack_;
};

/** Parsed JSON value (tree representation). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Object member list; order preserved. */
    using Members = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default;

    /** The value's type. */
    Type type() const { return type_; }

    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Boolean payload (false unless isBool()). */
    bool asBool() const { return boolean_; }

    /** Numeric payload (0 unless isNumber()). */
    double asNumber() const { return number_; }

    /** String payload (empty unless isString()). */
    const std::string &asString() const { return string_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members (empty unless isObject()). */
    const Members &members() const { return members_; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** The number member `key`; `fallback` when absent or not a
     * number. */
    double
    number(std::string_view key, double fallback = 0.0) const
    {
        const JsonValue *v = find(key);
        return v && v->isNumber() ? v->number_ : fallback;
    }

    /**
     * Parse a complete JSON document.
     *
     * @param text  the document
     * @param out   receives the parsed tree on success
     * @param error receives a message on failure (optional)
     * @return true on success
     */
    static bool parse(std::string_view text, JsonValue &out,
                      std::string *error = nullptr);

  private:
    Type type_ = Type::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    Members members_;

    friend class JsonParser;
};

/** How the run-record differ compares one field of a record block. */
enum class Compare : std::uint8_t
{
    None,  ///< carried in the record, never compared
    Exact, ///< deterministic model number: any drift is real
    Noisy, ///< wall-clock sample: bootstrap CI over pooled runs
};

/** Which direction of change the differ counts as better. */
enum class Better : std::uint8_t
{
    Lower,
    Higher, ///< throughput: a drop is the regression
};

/** A typed pointer to one member of a record block. */
using FieldPtr =
    std::variant<double *, std::uint64_t *, unsigned *, std::string *>;

/**
 * One entry of a record block's field list: the JSON key, the member
 * it maps to, and how the differ compares it. Each block lists its
 * fields once; writeFields(), readFields() and the differ walk the
 * list, so adding a field is one entry and no schema change.
 */
template <class T>
struct JsonField
{
    const char *key;
    FieldPtr (*member)(T &);
    Compare compare = Compare::None;
    Better better = Better::Lower;

    /** Key of the nested object holding the field ("roofline");
     * empty when the field sits in the block itself. */
    std::string_view object = {};

    /** The member of `s`, for reading only. */
    FieldPtr
    at(const T &s) const
    {
        return member(const_cast<T &>(s));
    }
};

/** A block's field list. */
template <class T>
using FieldList = std::span<const JsonField<T>>;

/** The list entry mapping `key` to the data member `Member`. */
template <auto Member>
constexpr auto
field(const char *key, Compare compare = Compare::None,
      Better better = Better::Lower)
{
    // The member pointer's type names the struct the list is for.
    return [=]<class T, class V>(V T::*) {
        return JsonField<T>{
            key, [](T &s) -> FieldPtr { return &(s.*Member); },
            compare, better};
    }(Member);
}

/** The JSON encoding of the member `m` points at. */
std::string encodeValue(FieldPtr m);

/** The member `m` points at as a number (0 for strings). */
double numberValue(FieldPtr m);

/**
 * Store `v` in the member `m` points at. An absent value or one of
 * another JSON type leaves the member unchanged. Returns false, with
 * *error naming `key`, when a number does not fit an unsigned member:
 * negative, fractional, or past its range.
 */
bool readValue(const JsonValue *v, FieldPtr m, std::string_view key,
               std::string *error);

/** Write `s` as one JSON object of the fields in `fields`. */
template <class T>
void
writeFields(JsonWriter &w, const T &s, FieldList<T> fields)
{
    std::string_view open; // nested object being written
    w.beginObject();
    for (const JsonField<T> &f : fields) {
        if (f.object != open) {
            if (!open.empty())
                w.endObject();
            if (!f.object.empty())
                w.key(f.object).beginObject();
            open = f.object;
        }
        w.key(f.key).rawValue(encodeValue(f.at(s)));
    }
    if (!open.empty())
        w.endObject();
    w.endObject();
}

/** Fill the members of `s` that `obj` carries, by key. Returns false
 * (with *error naming the key) on a number that does not fit. */
template <class T>
bool
readFields(const JsonValue &obj, T &s, FieldList<T> fields,
           std::string *error)
{
    for (const JsonField<T> &f : fields) {
        const JsonValue *in = f.object.empty() ? &obj : obj.find(f.object);
        if (!readValue(in ? in->find(f.key) : nullptr, f.member(s),
                       f.key, error)) {
            if (error && !f.object.empty())
                *error = std::string(f.object) + "." + *error;
            return false;
        }
    }
    return true;
}

} // namespace alphapim::telemetry

#endif // ALPHA_PIM_TELEMETRY_JSON_HH
