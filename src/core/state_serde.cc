/**
 * @file
 * StateWriter/StateReader implementation. See state_serde.hh for the
 * format contract. The reader is deliberately unforgiving: simulator
 * state is only useful when it is exactly right, so every parse
 * problem is a fatal with the line number and the offending text.
 */

#include "core/state_serde.hh"

#include <algorithm>
#include <charconv>

#include "common/logging.hh"
#include "core/job_serde.hh"

namespace stsim
{
namespace serde
{

// ---------------------------------------------------------------------------
// StateWriter
// ---------------------------------------------------------------------------

StateWriter::StateWriter()
{
    out_ = "stsim-state ";
    out_ += std::to_string(kStateFormatVersion);
    out_ += '\n';
}

void
StateWriter::begin(const char *section)
{
    out_ += '[';
    out_ += section;
    out_ += "]\n";
    stack_.emplace_back(section);
}

void
StateWriter::end(const char *section)
{
    if (stack_.empty() || stack_.back() != section)
        stsim_panic("state: unbalanced section end '[/%s]'", section);
    stack_.pop_back();
    out_ += "[/";
    out_ += section;
    out_ += "]\n";
}

void
StateWriter::boolean(const char *key, bool v)
{
    out_ += key;
    out_ += v ? " 1\n" : " 0\n";
}

void
StateWriter::dbl(const char *key, double v)
{
    out_ += key;
    out_ += ' ';
    out_ += doubleToHex(v);
    out_ += '\n';
}

void
StateWriter::str(const char *key, std::string_view v)
{
    if (v.find('\n') != std::string_view::npos)
        stsim_panic("state: string value for '%s' contains a newline",
                    key);
    out_ += key;
    out_ += ' ';
    out_ += v;
    out_ += '\n';
}

void
StateWriter::dblArray(const char *key, const double *v, std::size_t n)
{
    out_ += key;
    out_ += ' ';
    out_ += std::to_string(n);
    for (std::size_t i = 0; i < n; ++i) {
        out_ += ' ';
        out_ += doubleToHex(v[i]);
    }
    out_ += '\n';
}

std::string
StateWriter::take()
{
    if (!stack_.empty())
        stsim_panic("state: take() with open section '[%s]'",
                    stack_.back().c_str());
    out_ += "end\n";
    return std::move(out_);
}

// ---------------------------------------------------------------------------
// StateReader
// ---------------------------------------------------------------------------

namespace
{

template <typename T>
T
parseToken(std::string_view tok, const char *key, std::size_t lineNo)
{
    T v = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                   v, 10);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
        stsim_fatal("state: line %zu: bad integer for '%s': '%.*s'",
                    lineNo, key, static_cast<int>(tok.size()),
                    tok.data());
    }
    return v;
}

/** The fatal for value @p v, read for @p key on line @p lineNo, above
 *  @p max. Kept out of line: the check runs once per array value. */
[[noreturn]] void
outOfRange(std::uint64_t v, std::uint64_t max, const char *key,
           std::size_t lineNo)
{
    stsim_fatal("state: line %zu: '%s' value %llu is out of range "
                "(max %llu)",
                lineNo, key, static_cast<unsigned long long>(v),
                static_cast<unsigned long long>(max));
}

/**
 * Scans the decimal token at @p p, which is not a space, and leaves
 * @p p just past it. Digits are accumulated as they are passed; a
 * token with any other byte, or long enough to overflow (20 digits or
 * more), is decided by parseToken, so exactly what std::from_chars
 * accepts as a whole token is accepted.
 */
std::uint64_t
scanU64(const char *&p, const char *end, const char *key,
        std::size_t lineNo)
{
    const char *tok = p;
    std::uint64_t v = 0;
    for (; p != end && static_cast<unsigned>(*p - '0') < 10; ++p)
        v = v * 10 + static_cast<unsigned>(*p - '0');
    if ((p != end && *p != ' ') || p - tok >= 20) {
        while (p != end && *p != ' ')
            ++p;
        return parseToken<std::uint64_t>(std::string_view(tok, p - tok),
                                         key, lineNo);
    }
    return v;
}

/**
 * Reads the `N v1 .. vN` value text of array line @p key into @p out
 * in one pass: runs of spaces separate tokens, the count is checked
 * against what the line can hold before @p out is sized, and
 * @p scanValue(p, end) parses each value where the scan finds it.
 */
template <typename T, typename ScanValue>
void
scanArray(std::string_view text, const char *key, std::size_t lineNo,
          std::vector<T> &out, ScanValue scanValue)
{
    const char *p = text.data();
    const char *const end = p + text.size();
    auto skipSpaces = [&] {
        while (p != end && *p == ' ')
            ++p;
    };
    auto shorter = [&] {
        stsim_fatal("state: line %zu: array '%s' is shorter than its "
                    "declared count",
                    lineNo, key);
    };
    skipSpaces();
    if (p == end)
        shorter();
    const std::uint64_t n = scanU64(p, end, key, lineNo);
    // Each value takes at least two bytes of the line (" x"), so a
    // damaged image's huge count cannot allocate more than it holds.
    if (n > static_cast<std::uint64_t>(end - p) / 2)
        shorter();
    out.resize(n);
    for (T &x : out) {
        skipSpaces();
        if (p == end)
            shorter();
        x = scanValue(p, end);
    }
    skipSpaces();
    if (p != end) {
        stsim_fatal("state: line %zu: array '%s' has trailing tokens "
                    "beyond its declared count",
                    lineNo, key);
    }
}

} // namespace

StateReader::StateReader(std::string_view image) : image_(image)
{
    std::string_view hdr = line("header");
    std::string want =
        "stsim-state " + std::to_string(kStateFormatVersion);
    if (hdr != want) {
        stsim_fatal("state: not a stsim snapshot or unsupported "
                    "version (expected '%s', got '%.*s')",
                    want.c_str(), static_cast<int>(hdr.size()),
                    hdr.data());
    }
}

std::string_view
StateReader::line(const char *wantKey)
{
    if (pos_ >= image_.size()) {
        stsim_fatal("state: unexpected end of snapshot while reading "
                    "'%s' (truncated image?)",
                    wantKey);
    }
    std::size_t nl = image_.find('\n', pos_);
    if (nl == std::string_view::npos) {
        stsim_fatal("state: unexpected end of snapshot while reading "
                    "'%s' (missing final newline)",
                    wantKey);
    }
    std::string_view l = image_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    ++lineNo_;
    return l;
}

void
StateReader::fail(const char *what, std::string_view got)
{
    stsim_fatal("state: line %zu: expected %s, got '%.*s'", lineNo_ - 1,
                what, static_cast<int>(got.size()), got.data());
}

void
StateReader::begin(const char *section)
{
    std::string_view l = line(section);
    std::string want = std::string("[") + section + "]";
    if (l != want)
        fail(("section " + want).c_str(), l);
}

void
StateReader::end(const char *section)
{
    std::string_view l = line(section);
    std::string want = std::string("[/") + section + "]";
    if (l != want)
        fail(("section close " + want).c_str(), l);
}

std::string_view
StateReader::value(const char *key)
{
    std::string_view l = line(key);
    std::size_t klen = std::string_view(key).size();
    if (l.size() < klen + 1 || l.compare(0, klen, key) != 0 ||
        l[klen] != ' ') {
        fail((std::string("key '") + key + "'").c_str(), l);
    }
    return l.substr(klen + 1);
}

std::uint64_t
StateReader::u64(const char *key)
{
    return parseToken<std::uint64_t>(value(key), key, lineNo_ - 1);
}

std::uint64_t
StateReader::u64(const char *key, std::uint64_t max)
{
    const std::uint64_t v = u64(key);
    if (v > max)
        outOfRange(v, max, key, lineNo_ - 1);
    return v;
}

bool
StateReader::boolean(const char *key)
{
    std::string_view v = value(key);
    if (v == "1")
        return true;
    if (v == "0")
        return false;
    fail((std::string("boolean for '") + key + "'").c_str(), v);
}

double
StateReader::dbl(const char *key)
{
    return doubleFromHex(value(key));
}

std::string
StateReader::str(const char *key)
{
    return std::string(value(key));
}

std::vector<std::uint64_t>
StateReader::u64Vec(const char *key)
{
    const std::span<const std::uint64_t> v =
        u64Array(key, kAnyCount, UINT64_MAX);
    return {v.begin(), v.end()};
}

std::vector<double>
StateReader::dblVec(const char *key)
{
    const std::string_view text = value(key);
    std::vector<double> out;
    scanArray(text, key, lineNo_ - 1, out,
              [](const char *&p, const char *end) {
                  const char *tok = p;
                  while (p != end && *p != ' ')
                      ++p;
                  return doubleFromHex(std::string_view(tok, p - tok));
              });
    return out;
}

std::span<const std::uint64_t>
StateReader::u64Array(const char *key, std::size_t n, std::uint64_t max)
{
    const std::string_view text = value(key);
    const std::size_t lineNo = lineNo_ - 1;
    scanArray(text, key, lineNo, values_,
              [&](const char *&p, const char *end) {
                  const std::uint64_t v = scanU64(p, end, key, lineNo);
                  if (v > max)
                      outOfRange(v, max, key, lineNo);
                  return v;
              });
    if (n != kAnyCount)
        expectCount(key, values_.size(), n);
    return values_;
}

std::vector<double>
StateReader::dblVec(const char *key, std::size_t n)
{
    std::vector<double> out = dblVec(key);
    expectCount(key, out.size(), n);
    return out;
}

void
StateReader::expectCount(const char *key, std::size_t got,
                         std::size_t want)
{
    if (got != want) {
        stsim_fatal("state: line %zu: array '%s' has %zu values, "
                    "expected %zu",
                    lineNo_ - 1, key, got, want);
    }
}

void
StateReader::finish()
{
    std::string_view l = line("end marker");
    if (l != "end")
        fail("end marker", l);
    if (pos_ != image_.size()) {
        stsim_fatal("state: line %zu: trailing bytes after the end "
                    "marker",
                    lineNo_);
    }
}

// ---------------------------------------------------------------------------
// StateIO
// ---------------------------------------------------------------------------

void
StateIO::begin(const char *section)
{
    if (w_)
        w_->begin(section);
    else
        r_->begin(section);
}

void
StateIO::end(const char *section)
{
    if (w_)
        w_->end(section);
    else
        r_->end(section);
}

void
StateIO::boolean(const char *key, bool &v)
{
    if (w_)
        w_->boolean(key, v);
    else
        v = r_->boolean(key);
}

void
StateIO::dbl(const char *key, double &v)
{
    if (w_)
        w_->dbl(key, v);
    else
        v = r_->dbl(key);
}

void
StateIO::str(const char *key, std::string &v)
{
    if (w_)
        w_->str(key, v);
    else
        v = r_->str(key);
}

} // namespace serde
} // namespace stsim
