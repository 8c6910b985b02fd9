#include "job_serde.hh"

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace stsim
{
namespace serde
{

namespace
{

// ---------------------------------------------------------------------------
// Minimal strict JSON value + recursive-descent parser. Numbers keep
// their raw token (we never need float JSON numbers: doubles travel as
// hex-float strings); objects preserve key order.
// ---------------------------------------------------------------------------

struct JVal
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool b = false;
    std::string num;  ///< raw token (Kind::Num)
    std::string str;  ///< decoded string (Kind::Str)
    std::vector<JVal> arr;
    std::vector<std::pair<std::string, JVal>> obj;

    const JVal *
    find(std::string_view key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }

    const JVal &
    at(const char *key) const
    {
        if (kind != Kind::Obj)
            stsim_fatal("serde: '%s' looked up on a non-object", key);
        if (const JVal *v = find(key))
            return *v;
        stsim_fatal("serde: missing key '%s'", key);
    }

    std::uint64_t
    asU64() const
    {
        if (kind != Kind::Num)
            stsim_fatal("serde: expected an integer");
        // strtoull would silently wrap a negative value to 2^64-v and
        // saturate one above 2^64-1.
        if (num.empty() || num[0] == '-')
            stsim_fatal("serde: bad integer '%s' (must be unsigned)",
                        num.c_str());
        char *end = nullptr;
        errno = 0;
        std::uint64_t v = std::strtoull(num.c_str(), &end, 10);
        if (!end || *end != '\0' || errno == ERANGE)
            stsim_fatal("serde: bad integer '%s'", num.c_str());
        return v;
    }

    /** An unsigned integer that must fit field @p key of type T. */
    template <typename T>
    T
    asUnsigned(const char *key) const
    {
        std::uint64_t v = asU64();
        if (v > std::numeric_limits<T>::max())
            stsim_fatal("serde: '%s' value %s is out of range "
                        "(max %" PRIu64 ")",
                        key, num.c_str(),
                        std::uint64_t{std::numeric_limits<T>::max()});
        return static_cast<T>(v);
    }

    double
    asDouble() const
    {
        // Doubles are serialized as hex-float strings; accept plain
        // JSON numbers too (hand-written manifests).
        if (kind == Kind::Str)
            return doubleFromHex(str);
        if (kind == Kind::Num)
            return doubleFromHex(num);
        stsim_fatal("serde: expected a double");
    }

    bool
    asBool() const
    {
        if (kind != Kind::Bool)
            stsim_fatal("serde: expected a bool");
        return b;
    }

    const std::string &
    asStr() const
    {
        if (kind != Kind::Str)
            stsim_fatal("serde: expected a string");
        return str;
    }
};

class Parser
{
  public:
    explicit Parser(std::string_view s) : s_(s) {}

    JVal
    parse()
    {
        JVal v = value();
        skipWs();
        if (pos_ != s_.size())
            stsim_fatal("serde: trailing bytes after JSON value");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            stsim_fatal("serde: unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            stsim_fatal("serde: expected '%c' at offset %zu", c, pos_);
        ++pos_;
    }

    JVal
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't':
          case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    // The parser (and JVal's destructor) recurse per nesting level; a
    // hostile frame of '['/'{"a":' repeated would otherwise overflow
    // the stack, which FatalCaptureScope cannot catch. Real records
    // nest ~5 levels, so 64 is generous.
    void
    enterNested()
    {
        if (++depth_ > kMaxDepth)
            stsim_fatal("serde: JSON nested deeper than %zu levels",
                        kMaxDepth);
    }

    JVal
    object()
    {
        expect('{');
        enterNested();
        JVal v;
        v.kind = JVal::Kind::Obj;
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return v;
        }
        for (;;) {
            JVal key = string();
            expect(':');
            v.obj.emplace_back(std::move(key.str), value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return v;
        }
    }

    JVal
    array()
    {
        expect('[');
        enterNested();
        JVal v;
        v.kind = JVal::Kind::Arr;
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return v;
        }
        for (;;) {
            v.arr.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return v;
        }
    }

    JVal
    string()
    {
        expect('"');
        JVal v;
        v.kind = JVal::Kind::Str;
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    break;
                char e = s_[pos_++];
                switch (e) {
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case '/': v.str += '/'; break;
                  case 'n': v.str += '\n'; break;
                  case 't': v.str += '\t'; break;
                  case 'r': v.str += '\r'; break;
                  default:
                    stsim_fatal("serde: unsupported escape '\\%c'", e);
                }
                continue;
            }
            v.str += c;
        }
        stsim_fatal("serde: unterminated string");
    }

    JVal
    boolean()
    {
        JVal v;
        v.kind = JVal::Kind::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.b = true;
            pos_ += 4;
            return v;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            v.b = false;
            pos_ += 5;
            return v;
        }
        stsim_fatal("serde: bad literal at offset %zu", pos_);
    }

    JVal
    null()
    {
        if (s_.compare(pos_, 4, "null") != 0)
            stsim_fatal("serde: bad literal at offset %zu", pos_);
        pos_ += 4;
        return JVal{};
    }

    JVal
    number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        while (pos_ < s_.size() &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
                s_[pos_] == '+')) {
            ++pos_;
        }
        if (pos_ == start)
            stsim_fatal("serde: bad token at offset %zu", start);
        JVal v;
        v.kind = JVal::Kind::Num;
        v.num.assign(s_.substr(start, pos_ - start));
        return v;
    }

    static constexpr std::size_t kMaxDepth = 64;

    std::string_view s_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

// ---------------------------------------------------------------------------
// Field-list writer and reader. A struct with a visitFields list is an
// object with its fields in list order; each field type has one JSON
// shape:
//   std::string       string
//   bool              true / false
//   unsigned integer  number (rejected on input above the type's max)
//   double            hex-float string (plain numbers accepted on input)
//   enum              its wire name (wireNames)
//   std::array        array of exactly N elements
//   std::optional     written only when set; absent or null reads unset
//   struct            nested object
// ---------------------------------------------------------------------------

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
constexpr bool kIsArray = false;
template <typename T, std::size_t N>
constexpr bool kIsArray<std::array<T, N>> = true;

/** Wire names of the enums the formats carry, indexed by value. */
constexpr auto
wireNames(ConfKind)
{
    return std::array{"none", "bpru", "jrs", "perfect"};
}

constexpr auto
wireNames(OracleMode)
{
    return std::array{"none", "oracle-fetch", "oracle-decode",
                      "oracle-select"};
}

constexpr auto
wireNames(SpecControlMode)
{
    return std::array{"none", "selective", "pipeline-gating"};
}

constexpr auto
wireNames(BandwidthLevel)
{
    return std::array{"1/1", "1/2", "1/4", "0"};
}

constexpr auto
wireNames(ClockGatingStyle)
{
    return std::array{"cc0", "cc3"};
}

constexpr auto
wireNames(BpredConfig::Kind)
{
    return std::array{"gshare", "bimodal"};
}

template <typename E>
const char *
wireName(E e)
{
    auto names = wireNames(e);
    auto i = static_cast<std::size_t>(e);
    return i < names.size() ? names[i] : "?";
}

template <typename E>
E
enumFromName(const std::string &s, const char *key)
{
    auto names = wireNames(E{});
    for (std::size_t i = 0; i < names.size(); ++i)
        if (s == names[i])
            return static_cast<E>(i);
    stsim_fatal("serde: unknown %s '%s'", key, s.c_str());
}

void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    out += '"';
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

template <typename T>
void appendValue(std::string &out, const T &f);

/** visitFields visitor that writes each field through a FlatWriter. */
struct FieldWriter
{
    FlatWriter &w;

    template <typename T>
    void
    operator()(const char *key, const T &f, const char * = nullptr) const
    {
        if constexpr (kIsOptional<T>) {
            if (f)
                appendValue(w.field(key), *f);
        } else {
            appendValue(w.field(key), f);
        }
    }
};

template <typename S>
std::string
objectJson(const S &s)
{
    FlatWriter w;
    visitFields(s, FieldWriter{w});
    return w.finish();
}

template <typename T>
void
appendValue(std::string &out, const T &f)
{
    if constexpr (std::is_same_v<T, std::string>) {
        appendQuoted(out, f);
    } else if constexpr (std::is_same_v<T, bool>) {
        out += f ? "true" : "false";
    } else if constexpr (std::is_enum_v<T>) {
        appendQuoted(out, wireName(f));
    } else if constexpr (std::is_unsigned_v<T>) {
        appendU64(out, f);
    } else if constexpr (std::is_same_v<T, double>) {
        appendQuoted(out, doubleToHex(f));
    } else if constexpr (kIsArray<T>) {
        out += '[';
        for (std::size_t i = 0; i < f.size(); ++i) {
            if (i)
                out += ',';
            appendValue(out, f[i]);
        }
        out += ']';
    } else {
        out += objectJson(f);
    }
}

template <typename T>
void readValue(const JVal &v, T &f, const char *key);

/** visitFields visitor that fills each field from a parsed object. */
struct FieldReader
{
    const JVal &obj;

    template <typename T>
    void
    operator()(const char *key, T &f, const char * = nullptr) const
    {
        if constexpr (kIsOptional<T>) {
            const JVal *v = obj.find(key);
            if (v && v->kind != JVal::Kind::Null)
                readValue(*v, f.emplace(), key);
        } else {
            readValue(obj.at(key), f, key);
        }
    }
};

template <typename T>
void
readValue(const JVal &v, T &f, const char *key)
{
    if constexpr (std::is_same_v<T, std::string>) {
        f = v.asStr();
    } else if constexpr (std::is_same_v<T, bool>) {
        f = v.asBool();
    } else if constexpr (std::is_enum_v<T>) {
        f = enumFromName<T>(v.asStr(), key);
    } else if constexpr (std::is_unsigned_v<T>) {
        f = v.asUnsigned<T>(key);
    } else if constexpr (std::is_same_v<T, double>) {
        f = v.asDouble();
    } else if constexpr (kIsArray<T>) {
        if (v.kind != JVal::Kind::Arr || v.arr.size() != f.size())
            stsim_fatal("serde: '%s' must be an array of %zu entries",
                        key, f.size());
        for (std::size_t i = 0; i < f.size(); ++i)
            readValue(v.arr[i], f[i], key);
    } else {
        visitFields(f, FieldReader{v});
    }
}

template <typename S>
S
fromJVal(const JVal &v)
{
    S s;
    visitFields(s, FieldReader{v});
    return s;
}

} // namespace

FlatWriter &
FlatWriter::str(const char *k, std::string_view value)
{
    appendQuoted(field(k), value);
    return *this;
}

FlatWriter &
FlatWriter::u64(const char *k, std::uint64_t value)
{
    appendU64(field(k), value);
    return *this;
}

std::string &
FlatWriter::field(const char *k)
{
    if (!first_)
        out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += k;
    out_ += "\":";
    return out_;
}

std::string
FlatWriter::finish()
{
    out_ += '}';
    return std::move(out_);
}

ParseOutcome
parseFlat(std::string_view json, std::vector<FlatField> &out)
{
    out.clear();
    FatalCaptureScope scope;
    try {
        JVal v = Parser(json).parse();
        if (v.kind != JVal::Kind::Obj)
            return ParseOutcome{false, "serde: flat record is not an object"};
        for (auto &[key, val] : v.obj) {
            if (val.kind == JVal::Kind::Str) {
                out.push_back({std::move(key), std::move(val.str), true});
            } else if (val.kind == JVal::Kind::Num &&
                       val.num.find_first_not_of("0123456789") ==
                           std::string::npos) {
                out.push_back({std::move(key), std::move(val.num), false});
            } else {
                return ParseOutcome{false, "serde: flat field '" + key +
                                               "' is not a string or an "
                                               "unsigned integer"};
            }
        }
        return ParseOutcome{};
    } catch (const FatalError &e) {
        return ParseOutcome{false, e.what()};
    }
}

bool
flatGet(const std::vector<FlatField> &rec, std::string_view key,
        std::string &out)
{
    for (const FlatField &f : rec) {
        if (f.isString && f.key == key) {
            out = f.value;
            return true;
        }
    }
    return false;
}

bool
flatGet(const std::vector<FlatField> &rec, std::string_view key,
        std::uint64_t &out)
{
    for (const FlatField &f : rec) {
        if (!f.isString && f.key == key) {
            char *end = nullptr;
            errno = 0;
            out = std::strtoull(f.value.c_str(), &end, 10);
            return *end == '\0' && errno != ERANGE;
        }
    }
    return false;
}

std::string
doubleToHex(double d)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", d);
    return buf;
}

double
doubleFromHex(std::string_view s)
{
    std::string z(s);
    char *end = nullptr;
    double d = std::strtod(z.c_str(), &end);
    if (!end || *end != '\0' || z.empty())
        stsim_fatal("serde: bad double '%s'", z.c_str());
    return d;
}

std::string
toJson(const SimConfig &cfg)
{
    return objectJson(cfg);
}

SimConfig
configFromJson(std::string_view json)
{
    return fromJVal<SimConfig>(Parser(json).parse());
}

std::string
toJson(const SimJob &job)
{
    return objectJson(job);
}

SimJob
jobFromJson(std::string_view json)
{
    return fromJVal<SimJob>(Parser(json).parse());
}

ParseOutcome
parseServeRequest(std::string_view json, ServeRequest &out)
{
    // Every fatal the strict parser / config decoder raises on this
    // thread while the scope is active becomes a FatalError caught
    // below -- one request frame can never take the daemon down.
    FatalCaptureScope scope;
    try {
        JVal v = Parser(json).parse();
        out = ServeRequest{};
        if (const JVal *id = v.find("id"))
            out.id = id->asU64();
        if (const JVal *op = v.find("op")) {
            if (op->asStr() == "ping") {
                out.ping = true;
                return ParseOutcome{};
            }
            if (op->asStr() == "health") {
                out.health = true;
                return ParseOutcome{};
            }
            if (op->asStr() == "metrics") {
                out.metrics = true;
                return ParseOutcome{};
            }
            return ParseOutcome{false,
                                "unknown op '" + op->asStr() + "'"};
        }
        if (const JVal *dl = v.find("deadlineMs"))
            out.deadlineMs = dl->asU64();
        out.job = fromJVal<SimJob>(v);
        return ParseOutcome{};
    } catch (const FatalError &e) {
        return ParseOutcome{false, e.what()};
    }
}

std::string
toJson(const SimResults &r)
{
    return objectJson(r);
}

SimResults
resultsFromJson(std::string_view json)
{
    return fromJVal<SimResults>(Parser(json).parse());
}

std::string
resultRecordToJson(std::uint64_t index, const SimResults &r)
{
    FlatWriter w;
    w.u64("index", index);
    appendValue(w.field("results"), r);
    return w.finish();
}

std::pair<std::uint64_t, SimResults>
resultRecordFromJson(std::string_view json)
{
    JVal v = Parser(json).parse();
    return {v.at("index").asU64(), fromJVal<SimResults>(v.at("results"))};
}

std::uint64_t
resultRecordIndex(std::string_view json)
{
    // Fast path for this serializer's own output ('index' is always
    // the first key): a streaming merge over millions of records must
    // not DOM-parse every full SimResults just to read its index.
    constexpr std::string_view kPrefix = "{\"index\":";
    if (json.substr(0, kPrefix.size()) == kPrefix) {
        std::uint64_t v = 0;
        std::size_t p = kPrefix.size();
        bool any = false;
        while (p < json.size() && json[p] >= '0' && json[p] <= '9') {
            v = v * 10 + static_cast<std::uint64_t>(json[p] - '0');
            ++p;
            any = true;
        }
        if (any && p < json.size() &&
            (json[p] == ',' || json[p] == '}')) {
            return v;
        }
    }
    JVal v = Parser(json).parse();
    return v.at("index").asU64();
}

} // namespace serde
} // namespace stsim
