/**
 * @file
 * Unit tests for the common substrate: saturating counters, RNG,
 * bit utilities, statistics, the table formatter and the zeroing
 * allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/btb.hh"
#include "cache/cache.hh"
#include "common/arg_parse.hh"
#include "common/bitutil.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/table.hh"
#include "common/zero_alloc.hh"
#include "confidence/bpru.hh"

using namespace stsim;

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 3);
    EXPECT_EQ(c.value(), 3u);
    c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isMax());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 0);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(c.isMin());
}

TEST(SatCounter, TakenThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.isTaken()); // 0
    c.increment();
    EXPECT_FALSE(c.isTaken()); // 1
    c.increment();
    EXPECT_TRUE(c.isTaken()); // 2
    c.increment();
    EXPECT_TRUE(c.isTaken()); // 3
}

TEST(SatCounter, WeakStates2Bit)
{
    EXPECT_FALSE(SatCounter(2, 0).isWeak());
    EXPECT_TRUE(SatCounter(2, 1).isWeak());
    EXPECT_TRUE(SatCounter(2, 2).isWeak());
    EXPECT_FALSE(SatCounter(2, 3).isWeak());
}

TEST(SatCounter, WiderCounters)
{
    SatCounter c(4, 0);
    EXPECT_EQ(c.maxValue(), 15u);
    for (int i = 0; i < 100; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 15u);
    c.set(12);
    EXPECT_EQ(c.value(), 12u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, InitialValueClamped)
{
    SatCounter c(3, 200);
    EXPECT_EQ(c.value(), 7u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, BetweenInclusive)
{
    Rng r(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.between(3, 6));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(*seen.begin(), 3u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(BitUtil, PowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(32768), 15u);
    EXPECT_EQ(floorLog2(33000), 15u);
    EXPECT_EQ(ceilLog2(33000), 16u);
    EXPECT_EQ(ceilLog2(1), 0u);
}

TEST(BitUtil, LowMask)
{
    EXPECT_EQ(lowMask(0), 0ull);
    EXPECT_EQ(lowMask(4), 0xFull);
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(TextTable, FormatsAligned)
{
    TextTable t({"col", "x"});
    t.addRow({"a", "1"});
    t.addRow({"long-cell", "2"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| a         | 1 |"), std::string::npos);
    EXPECT_NE(out.find("| long-cell | 2 |"), std::string::npos);
}

TEST(TextTable, NumAndPct)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::pct(12.345, 1), "12.3%");
}

namespace
{

/**
 * Reference for args::decodeU64: a value is one or more decimal
 * digits and nothing else, no larger than @p max. Computed without
 * strtoull: leading zeros are dropped and the rest compared as a
 * decimal string against the largest 64-bit value.
 */
std::optional<std::uint64_t>
digitsOnly(const std::string &s, std::uint64_t max)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    const std::string digits = s.substr(std::min(
        s.find_first_not_of('0'), s.size() - 1));
    const std::string limit = std::to_string(UINT64_MAX);
    if (digits.size() > limit.size() ||
        (digits.size() == limit.size() && digits > limit))
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : digits)
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > max)
        return std::nullopt;
    return v;
}

/**
 * What dblPositive accepts: strtod's syntax (leading white space, an
 * optional sign) over the whole value, finite and above zero.
 * Computed with std::from_chars, which takes neither.
 */
std::optional<double>
positiveDouble(const std::string &s)
{
    std::size_t at = s.find_first_not_of(" \t\n\v\f\r");
    if (at == std::string::npos)
        return std::nullopt;
    if (s[at] == '+')
        ++at;
    double d = 0;
    const char *last = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data() + at, last, d);
    if (ec != std::errc() || p != last || !std::isfinite(d) || d <= 0)
        return std::nullopt;
    return d;
}

/** Which Diag hook a parse ended in. */
enum class Ended
{
    Parsed,
    MissingValue,
    Unknown,
    BadValue,
    NotPositive,
};

struct DiagFired
{
    Ended how;
};

/** dispatch's --timeout-sec bound: seconds that fit in milliseconds. */
constexpr std::uint64_t kTimeoutBound =
    std::chrono::milliseconds::max().count() / 1000;

/** Every kind of target a FlagSet binds, at non-zero defaults. */
struct Targets
{
    std::uint8_t u8 = 7;
    std::uint16_t u16 = 7;
    std::uint32_t u32 = 7;
    std::uint64_t u64 = 7;
    std::uint64_t bounded = 7;
    std::optional<unsigned> opt;
    unsigned pos = 1;
    double dbl = 1.5;
    std::string str = "init";
    bool flag = false;

    bool operator==(const Targets &) const = default;
};

} // namespace

/// Random command lines drawn from flag names and the values at the
/// edges of every target type end either with every target holding a
/// value a reference decoder agrees with, or with exactly one Diag
/// hook, the one the reference predicts.
TEST(ArgParse, RandomArgvParsesOrFiresOneDiag)
{
    const std::vector<std::string> names = {
        "--u8", "--u16", "--u32", "--u64", "--bounded", "--opt",
        "--pos", "--dbl", "--str", "--flag"};
    std::vector<std::string> dict = names;
    for (const char *v :
         {"-1", " 1", "+0", "0", "1/2x", "255", "256", "65535", "65536",
          "4294967295", "4294967296", "9223372036854775",
          "9223372036854776", "18446744073709551615",
          "18446744073709551616", "nan", "inf", "1e309", ""})
        dict.push_back(v);

    std::mt19937_64 rng(20030208);
    int fired = 0;
    int parsed = 0;
    for (int iter = 0; iter < 20'000; ++iter) {
        std::vector<std::string> argv = {"prog"};
        for (std::size_t n = rng() % 7; n > 0; --n)
            argv.push_back(dict[rng() % dict.size()]);

        // The reference: walk the arguments as the parser documents.
        Targets want;
        Ended wantEnd = Ended::Parsed;
        for (std::size_t i = 1; i < argv.size() && wantEnd == Ended::Parsed;
             ++i) {
            const std::string &a = argv[i];
            if (a == "--flag") {
                want.flag = true;
                continue;
            }
            if (std::find(names.begin(), names.end(), a) == names.end()) {
                wantEnd = Ended::Unknown;
                break;
            }
            if (i + 1 == argv.size()) {
                wantEnd = Ended::MissingValue;
                break;
            }
            const std::string &v = argv[++i];
            auto store = [&](auto &target, std::uint64_t max) {
                if (std::optional<std::uint64_t> u = digitsOnly(v, max))
                    target = static_cast<std::remove_reference_t<
                        decltype(target)>>(*u);
                else
                    wantEnd = Ended::BadValue;
            };
            if (a == "--u8")
                store(want.u8, UINT8_MAX);
            else if (a == "--u16")
                store(want.u16, UINT16_MAX);
            else if (a == "--u32")
                store(want.u32, UINT32_MAX);
            else if (a == "--u64")
                store(want.u64, UINT64_MAX);
            else if (a == "--bounded")
                store(want.bounded, kTimeoutBound);
            else if (a == "--opt")
                store(want.opt, UINT_MAX);
            else if (a == "--pos") {
                store(want.pos, UINT_MAX);
                if (wantEnd == Ended::Parsed && want.pos == 0)
                    wantEnd = Ended::NotPositive;
            } else if (a == "--dbl") {
                if (std::optional<double> d = positiveDouble(v))
                    want.dbl = *d;
                else
                    wantEnd = Ended::BadValue;
            } else {
                want.str = v;
            }
        }

        Targets got;
        int hooks = 0;
        auto hook = [&hooks](Ended how) {
            ++hooks;
            throw DiagFired{how};
        };
        args::Diag diag;
        diag.missingValue = [&](const char *) { hook(Ended::MissingValue); };
        diag.unknown = [&](const char *) { hook(Ended::Unknown); };
        diag.badValue = [&](const char *, const char *) {
            hook(Ended::BadValue);
        };
        diag.notPositive = [&](const char *) { hook(Ended::NotPositive); };
        args::FlagSet fs(diag);
        fs.u64("--u8", "N", &got.u8)
            .u64("--u16", "N", &got.u16)
            .u64("--u32", "N", &got.u32)
            .u64("--u64", "N", &got.u64)
            .flag("--bounded", "S",
                  [&fs, &got](const char *v) {
                      got.bounded = fs.u64Value("--bounded", v,
                                                kTimeoutBound);
                  })
            .u64("--opt", "N", &got.opt)
            .u64Positive("--pos", "N", &got.pos)
            .dblPositive("--dbl", "X", &got.dbl)
            .str("--str", "S", &got.str)
            .boolean("--flag", &got.flag);

        std::vector<char *> cargv;
        for (std::string &a : argv)
            cargv.push_back(a.data());
        Ended end = Ended::Parsed;
        try {
            fs.parse(static_cast<int>(cargv.size()), cargv.data(), 1);
        } catch (const DiagFired &d) {
            end = d.how;
        }

        std::string line;
        for (std::size_t i = 1; i < argv.size(); ++i)
            line += " '" + argv[i] + "'";
        ASSERT_EQ(static_cast<int>(end), static_cast<int>(wantEnd)) << line;
        if (end == Ended::Parsed) {
            ASSERT_EQ(hooks, 0) << line;
            ASSERT_TRUE(got == want) << line;
            ++parsed;
        } else {
            ASSERT_EQ(hooks, 1) << line;
            ++fired;
        }
    }
    // Both endings must be common, or one of them goes untested.
    EXPECT_GT(parsed, 2'000);
    EXPECT_GT(fired, 2'000);
}

/// decodeShard accepts exactly "I/N": one '/', digits-only sides
/// that fit in 64 bits, and I < N.
TEST(ArgParse, DecodeShardMatchesReference)
{
    auto reference = [](const std::string &s) -> std::optional<args::Shard> {
        const std::size_t slash = s.find('/');
        if (slash == std::string::npos)
            return std::nullopt;
        std::optional<std::uint64_t> i =
            digitsOnly(s.substr(0, slash), UINT64_MAX);
        std::optional<std::uint64_t> n =
            digitsOnly(s.substr(slash + 1), UINT64_MAX);
        if (!i || !n || *i >= *n)
            return std::nullopt;
        return args::Shard{*i, *n};
    };
    // Two digit runs at the u64 edges around a '/' that may be
    // missing or doubled, each side sometimes led or trailed by a
    // sign, a space, a letter or another '/'.
    const std::vector<std::string> digits = {
        "0", "1", "2", "7", "00", "10", "18446744073709551614",
        "18446744073709551615", "18446744073709551616",
        "018446744073709551615", "99999999999999999999", ""};
    const std::vector<std::string> noise = {" ", "+", "-", "x", "/"};
    std::mt19937_64 rng(2003);
    auto maybeNoise = [&] {
        return rng() % 4 ? std::string() : noise[rng() % noise.size()];
    };
    int accepted = 0;
    for (int iter = 0; iter < 50'000; ++iter) {
        std::string s = maybeNoise() + digits[rng() % digits.size()];
        s += rng() % 4 ? std::string("/") : maybeNoise();
        s += digits[rng() % digits.size()] + maybeNoise();
        std::optional<args::Shard> got = args::decodeShard(s.c_str());
        std::optional<args::Shard> want = reference(s);
        ASSERT_EQ(got.has_value(), want.has_value()) << "'" << s << "'";
        if (got) {
            ASSERT_EQ(got->index, want->index) << "'" << s << "'";
            ASSERT_EQ(got->count, want->count) << "'" << s << "'";
            ++accepted;
        }
    }
    // Both outcomes must be common, or one of them goes untested.
    EXPECT_GT(accepted, 2'000);
    EXPECT_LT(accepted, 48'000);
    struct Edge
    {
        const char *value;
        std::optional<args::Shard> want;
    };
    const std::optional<args::Shard> bad;
    for (const Edge &e : {
             Edge{"18446744073709551614/18446744073709551615",
                  args::Shard{UINT64_MAX - 1, UINT64_MAX}},
             Edge{"18446744073709551615/18446744073709551615", bad},
             Edge{"0/18446744073709551616", bad},
             Edge{"0/1", args::Shard{0, 1}},
             Edge{"01/02", args::Shard{1, 2}},
             Edge{"1/1", bad},
             Edge{"0/0", bad},
             Edge{"0/1/2", bad},
             Edge{"0/-1", bad},
             Edge{"1/2x", bad},
             Edge{"+0/2", bad},
             Edge{" 0/2", bad},
             Edge{"0/ 2", bad},
             Edge{"0 /2", bad},
             Edge{"/", bad},
             Edge{"", bad},
         }) {
        std::optional<args::Shard> got = args::decodeShard(e.value);
        ASSERT_EQ(got.has_value(), e.want.has_value())
            << "'" << e.value << "'";
        if (got) {
            EXPECT_EQ(got->index, e.want->index) << e.value;
            EXPECT_EQ(got->count, e.want->count) << e.value;
        }
    }
}

/// decodeU64 accepts exactly the digits-only values no larger than
/// its bound: no sign, no white space, no wrap past 2^64 - 1.
TEST(ArgParse, DecodeU64MatchesDigitsOnlyReference)
{
    const std::string alphabet = "0123456789000 +-x";
    const std::uint64_t bounds[] = {0, 1, 255, 65535, UINT32_MAX,
                                    UINT64_MAX};
    std::mt19937_64 rng(1);
    for (int iter = 0; iter < 50'000; ++iter) {
        std::string s;
        for (std::size_t n = rng() % 24; n > 0; --n)
            s += alphabet[rng() % alphabet.size()];
        const std::uint64_t max = iter % 2 ? bounds[rng() % 6] : rng();
        ASSERT_EQ(args::decodeU64(s.c_str(), max), digitsOnly(s, max))
            << "'" << s << "' max " << max;
    }
    for (const char *edge : {"18446744073709551615", "18446744073709551616",
                             "018446744073709551615", "00", ""}) {
        EXPECT_EQ(args::decodeU64(edge), digitsOnly(edge, UINT64_MAX))
            << edge;
    }
}

namespace
{

/** A @p T made of all-zero bytes: what a ZeroVector element starts as. */
template <typename T>
T
fromZeroBytes()
{
    return std::bit_cast<T>(std::array<unsigned char, sizeof(T)>{});
}

} // namespace

/// A ZeroVector never runs its elements' default member initializers,
/// so zero bytes must be the default of every type one stores: a
/// nonzero initializer would be silently ignored on a cold machine.
TEST(ZeroAllocator, ZeroBytesAreEveryStoredTypesDefault)
{
    EXPECT_EQ(fromZeroBytes<Cache::Line>(), Cache::Line{});
    EXPECT_EQ(fromZeroBytes<std::uint8_t>(), std::uint8_t{}); // MRU way
    EXPECT_EQ(fromZeroBytes<Btb::Entry>(), Btb::Entry{});
    EXPECT_EQ(fromZeroBytes<BpruEstimator::Entry>(),
              BpruEstimator::Entry{});

    // Growth keeps what was written and zero-fills the rest.
    ZeroVector<Cache::Line> lines(1024);
    lines[7].tag = 9;
    lines.resize(40'000); // reallocates
    Cache::Line written;
    written.tag = 9;
    for (std::size_t i = 0; i < lines.size(); ++i)
        ASSERT_EQ(lines[i], i == 7 ? written : Cache::Line{}) << i;
    ZeroVector<Cache::Line> copy = lines;
    EXPECT_EQ(copy, lines);
}
