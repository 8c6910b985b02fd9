/**
 * @file
 * Randomized equivalence tests for the bitmask-first hot path: the
 * single-level ScanMask against a brute-force bit set, and the batched
 * nextGroup walkers against serial next() streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/scan_mask.hh"
#include "trace/profile.hh"
#include "trace/static_program.hh"
#include "trace/workload.hh"

using namespace stsim;

namespace
{

std::shared_ptr<const StaticProgram>
hotpathProgram(std::uint64_t seed)
{
    BenchmarkProfile p;
    p.name = "hotpath";
    p.numBlocks = 96;
    p.numFuncs = 10;
    p.condBranchFrac = 0.14;
    p.seed = seed;
    return std::make_shared<const StaticProgram>(p);
}

bool
sameInst(const TraceInst &a, const TraceInst &b)
{
    return a.pc == b.pc && a.cls == b.cls &&
           a.srcDist[0] == b.srcDist[0] &&
           a.srcDist[1] == b.srcDist[1] && a.hasDest == b.hasDest &&
           a.memAddr == b.memAddr && a.taken == b.taken &&
           a.target == b.target && a.npc == b.npc;
}

} // namespace

// ---------------------------------------------------------------------
// ScanMask vs brute force
// ---------------------------------------------------------------------

/// Drive a ScanMask with a sliding window of monotone positions and
/// compare firstSet()/none()/count()/test() against a brute-force
/// reference on every step, including wrap of the underlying bit ring.
TEST(ScanMask, RandomizedEquivalenceAcrossWrap)
{
    Rng rng(0xc0ffee5ull);
    constexpr std::uint64_t kCap = 96; // rounds up to a 128-bit ring
    ScanMask m;
    m.init(kCap);
    ASSERT_GE(m.capacity(), kCap);

    std::uint64_t base = 0, end = 0;    // live window [base, end)
    std::vector<std::uint64_t> set_pos; // sorted live set positions

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 45 && end - base < kCap) {
            const std::uint64_t pos = end++;
            if (rng.below(2)) {
                m.set(pos);
                set_pos.push_back(pos);
            }
        } else if (base < end) {
            // Retire the oldest position; its bit dies with it.
            if (!set_pos.empty() && set_pos.front() == base) {
                m.clear(base);
                set_pos.erase(set_pos.begin());
            }
            ++base;
        }

        // none() and count() against the reference.
        ASSERT_EQ(m.none(), set_pos.empty());
        ASSERT_EQ(m.count(), set_pos.size());

        // firstSet from a few random starting points.
        for (int probe = 0; probe < 4; ++probe) {
            const std::uint64_t from =
                base + rng.below(end - base + 1);
            const std::uint64_t to =
                from + rng.below(end - from + 1);
            auto it = std::lower_bound(set_pos.begin(),
                                       set_pos.end(), from);
            const std::uint64_t want =
                (it != set_pos.end() && *it < to) ? *it
                                                  : ScanMask::kNone;
            ASSERT_EQ(m.firstSet(from, to), want)
                << "window [" << from << ", " << to << ")";
        }

        // test() on a random in-window position.
        if (base < end) {
            const std::uint64_t pos = base + rng.below(end - base);
            const bool want = std::binary_search(set_pos.begin(),
                                                 set_pos.end(), pos);
            ASSERT_EQ(m.test(pos), want);
        }
    }
    EXPECT_GT(end, m.capacity()) << "test never wrapped the ring";
}

TEST(ScanMask, ForEachSetVisitsInOrderAndAllowsClearing)
{
    ScanMask m;
    m.init(64);
    const std::uint64_t want[] = {3, 17, 40, 63};
    for (std::uint64_t p : want)
        m.set(p);

    std::vector<std::uint64_t> got;
    m.forEachSet(0, 64, [&](std::uint64_t pos) {
        got.push_back(pos);
        m.clear(pos); // callback may clear its own bit
    });
    ASSERT_EQ(got.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(got[i], want[i]);
    EXPECT_TRUE(m.none());
}

// ---------------------------------------------------------------------
// Batched nextGroup vs serial next()
// ---------------------------------------------------------------------

/// Two identically-seeded workloads, one walked serially and one in
/// random-size groups, must produce byte-identical instruction streams
/// with identical generated() accounting.
TEST(WorkloadGroups, NextGroupMatchesSerialNext)
{
    auto prog = hotpathProgram(11);
    Workload serial(prog, 42);
    Workload grouped(prog, 42);
    Rng rng(123);

    TraceInst buf[8];
    TraceInst *out[8];
    for (unsigned i = 0; i < 8; ++i)
        out[i] = &buf[i];

    for (int iter = 0; iter < 50000;) {
        const auto n = static_cast<unsigned>(1 + rng.below(8));
        const unsigned m = grouped.nextGroup(out, n);
        ASSERT_GE(m, 1u);
        ASSERT_LE(m, n);
        for (unsigned i = 0; i < m; ++i) {
            const TraceInst want = serial.next();
            ASSERT_TRUE(sameInst(buf[i], want))
                << "iter " << iter << " pos " << i << " pc "
                << buf[i].pc << " vs " << want.pc;
            // A short group may only end at a block terminator.
            if (m < n) {
                ASSERT_TRUE(i + 1 < m || buf[i].isBranch());
            }
            ++iter;
        }
        ASSERT_EQ(grouped.generated(), serial.generated());
    }
}

/// Same stream equivalence for the wrong-path cursor, across several
/// start addresses and seeds.
TEST(WorkloadGroups, WrongPathNextGroupMatchesSerialNext)
{
    auto prog = hotpathProgram(12);
    Workload wl(prog, 99);
    // Advance the architectural walker so cursors inherit real history.
    for (int i = 0; i < 2000; ++i)
        wl.next();

    Rng rng(321);
    for (int trial = 0; trial < 6; ++trial) {
        const auto &b = prog->block(static_cast<std::uint32_t>(
            rng.below(prog->numBlocks())));
        const Addr start = b.pc;
        const std::uint64_t seed = 0xabcd + trial;
        WrongPathCursor serial(wl, start, seed);
        WrongPathCursor grouped(wl, start, seed);

        TraceInst buf[8];
        TraceInst *out[8];
        for (unsigned i = 0; i < 8; ++i)
            out[i] = &buf[i];

        for (int iter = 0; iter < 4000;) {
            const auto n = static_cast<unsigned>(1 + rng.below(8));
            const unsigned m = grouped.nextGroup(out, n);
            ASSERT_GE(m, 1u);
            ASSERT_LE(m, n);
            for (unsigned i = 0; i < m; ++i) {
                const TraceInst want = serial.next();
                ASSERT_TRUE(sameInst(buf[i], want))
                    << "trial " << trial << " iter " << iter;
                ++iter;
            }
        }
    }
}
