#include "obs/metrics.hh"

#include <bit>
#include <cstdio>
#include <limits>

namespace stsim
{
namespace obs
{

namespace
{

std::string
u64Str(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
i64Str(std::int64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
}

/** Append one `"key":value` field to a flat record under construction. */
void
field(std::string &line, bool &first, const std::string &key,
      const std::string &value, bool quoted)
{
    if (!first)
        line += ',';
    first = false;
    line += '"';
    line += key;
    line += "\":";
    if (quoted) {
        line += '"';
        line += value;
        line += '"';
    } else {
        line += value;
    }
}

} // namespace

std::array<std::uint64_t, Histogram::kBuckets>
Histogram::bucketCounts() const
{
    std::array<std::uint64_t, kBuckets> out;
    for (int i = 0; i < kBuckets; ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

int
Histogram::bucketFor(std::uint64_t v)
{
    return v == 0 ? 0 : std::bit_width(v);
}

std::uint64_t
Histogram::bucketUpperBound(int i)
{
    if (i <= 0)
        return 0;
    if (i >= 64)
        return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
}

std::uint64_t
Histogram::quantile(double q) const
{
    return quantileFromCounts(bucketCounts(), q);
}

std::uint64_t
Histogram::quantileFromCounts(
    const std::array<std::uint64_t, kBuckets> &counts, double q)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-quantile sample, 1-based; q=0 means the minimum.
    std::uint64_t rank = static_cast<std::uint64_t>(q * double(total - 1)) + 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += counts[i];
        if (seen >= rank)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kBuckets - 1);
}

std::string
Histogram::sparseString(const std::array<std::uint64_t, kBuckets> &counts)
{
    std::string out;
    for (int i = 0; i < kBuckets; ++i) {
        if (counts[i] == 0)
            continue;
        if (!out.empty())
            out += ',';
        out += u64Str(static_cast<std::uint64_t>(i));
        out += ':';
        out += u64Str(counts[i]);
    }
    return out;
}

bool
Histogram::parseSparse(std::string_view s,
                       std::array<std::uint64_t, kBuckets> &out)
{
    out.fill(0);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t colon = s.find(':', pos);
        if (colon == std::string_view::npos)
            return false;
        std::size_t comma = s.find(',', colon + 1);
        std::size_t end = comma == std::string_view::npos ? s.size() : comma;
        std::uint64_t idx = 0, cnt = 0;
        auto parseU64 = [&](std::string_view tok, std::uint64_t &v) {
            if (tok.empty())
                return false;
            v = 0;
            for (char c : tok) {
                if (c < '0' || c > '9')
                    return false;
                v = v * 10 + static_cast<std::uint64_t>(c - '0');
            }
            return true;
        };
        if (!parseU64(s.substr(pos, colon - pos), idx) ||
            !parseU64(s.substr(colon + 1, end - colon - 1), cnt)) {
            return false;
        }
        if (idx >= static_cast<std::uint64_t>(kBuckets))
            return false;
        out[static_cast<std::size_t>(idx)] = cnt;
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
Registry::appendFlatFields(std::string &line, bool &first) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, c] : counters_)
        field(line, first, "c." + name, u64Str(c->value()), false);
    // Gauges can go negative, and the flat-record integer lexer is
    // unsigned-only, so gauges travel as quoted signed decimals.
    for (const auto &[name, g] : gauges_)
        field(line, first, "g." + name, i64Str(g->value()), true);
    for (const auto &[name, h] : histograms_) {
        auto counts = h->bucketCounts();
        field(line, first, "h." + name + ".count", u64Str(h->count()),
              false);
        field(line, first, "h." + name + ".sum", u64Str(h->sum()), false);
        field(line, first, "h." + name + ".p50",
              u64Str(Histogram::quantileFromCounts(counts, 0.50)), false);
        field(line, first, "h." + name + ".p90",
              u64Str(Histogram::quantileFromCounts(counts, 0.90)), false);
        field(line, first, "h." + name + ".p99",
              u64Str(Histogram::quantileFromCounts(counts, 0.99)), false);
        field(line, first, "h." + name + ".buckets",
              Histogram::sparseString(counts), true);
    }
}

std::string
Registry::snapshotJson() const
{
    std::string line = "{";
    bool first = true;
    appendFlatFields(line, first);
    line += '}';
    return line;
}

bool
Registry::writeSnapshotFile(const std::string &path) const
{
    return writeLineFile(path, snapshotJson());
}

bool
writeLineFile(const std::string &path, std::string_view text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = ok && std::fputc('\n', f) != EOF;
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

} // namespace obs
} // namespace stsim
