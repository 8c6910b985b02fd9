/**
 * @file
 * Unit and property tests for the synthetic workload generator:
 * profiles, static program construction, correct-path walking and
 * wrong-path cursors.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/profile.hh"
#include "trace/static_program.hh"
#include "trace/workload.hh"

using namespace stsim;

namespace
{

std::shared_ptr<const StaticProgram>
smallProgram()
{
    BenchmarkProfile p;
    p.name = "unit";
    p.numBlocks = 64;
    p.numFuncs = 8;
    p.condBranchFrac = 0.12;
    p.seed = 7;
    return std::make_shared<const StaticProgram>(p);
}

/** FNV-1a 64 over every TraceInst field, each widened to 8 bytes. */
struct StreamDigest
{
    std::uint64_t h = 14695981039346656037ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    add(const TraceInst &t)
    {
        mix(t.pc);
        mix(static_cast<std::uint64_t>(t.cls));
        mix(t.srcDist[0]);
        mix(t.srcDist[1]);
        mix(t.hasDest);
        mix(t.memAddr);
        mix(t.taken);
        mix(t.target);
        mix(t.npc);
    }
};

/** The fatal message validate() raises for @p p, or "" if it passes. */
std::string
validateError(const BenchmarkProfile &p)
{
    FatalCaptureScope capture;
    try {
        p.validate();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** A memory op's region as the walkers resolve it: base, size, stride
 *  and stream cursor index. */
struct OpRegion
{
    Addr base;
    std::uint32_t size;
    std::uint16_t stride;
    std::uint32_t cursor;
};

OpRegion
regionOf(const StaticProgram &prog, const StaticOp &op)
{
    const MemRegion &r = prog.region(op.region);
    return {r.base, r.size, r.stride, op.region};
}

/** Feed @p count instructions of @p gen into @p d through nextGroup,
 *  cycling the group size over 1..8 so both the one-instruction path
 *  and full fetch-width groups are pinned. */
template <typename Gen>
void
digestGroups(Gen &gen, int count, StreamDigest &d)
{
    TraceInst buf[8];
    TraceInst *out[8];
    for (unsigned i = 0; i < 8; ++i)
        out[i] = &buf[i];
    for (int done = 0, call = 0; done < count; ++call) {
        const unsigned m = gen.nextGroup(out, 1 + call % 8);
        for (unsigned i = 0; i < m; ++i)
            d.add(buf[i]);
        done += static_cast<int>(m);
    }
}

} // namespace

/// Pins the generated instruction streams byte for byte: the first
/// 200K correct-path instructions of two benchmarks, then 16 wrong-path
/// cursor streams from block starts, mid-block ops and terminators,
/// each with its own seed. Any change to a stream, or to the order of
/// RNG draws behind it, changes the digest.
TEST(WorkloadStream, DigestIsPinned)
{
    StreamDigest d;
    std::shared_ptr<const StaticProgram> prog;
    std::unique_ptr<Workload> w;
    for (const char *bench : {"go", "gcc"}) {
        prog = std::make_shared<const StaticProgram>(findProfile(bench));
        w = std::make_unique<Workload>(prog, 17);
        digestGroups(*w, 200'000, d);
        d.mix(w->generated());
    }

    Rng rng(0x5eed);
    for (int stream = 0; stream < 16; ++stream) {
        // Move the correct path on so each cursor inherits a different
        // global history.
        digestGroups(*w, 1 + static_cast<int>(rng.below(64)), d);
        const auto blk =
            static_cast<std::uint32_t>(rng.below(prog->numBlocks()));
        const StaticBlock &b = prog->block(blk);
        // Offsets 0..numOps: the block start, any body op, or the
        // terminator itself.
        const Addr start = b.pc + 4 * rng.below(b.numOps + 1);
        WrongPathCursor c(*w, start, rng.next());
        digestGroups(c, 3'000, d);
    }
    EXPECT_EQ(d.h, 0x36d1eb841e0cbc9dull);
}

TEST(Profiles, EightSpecBenchmarks)
{
    const auto &v = specProfiles();
    ASSERT_EQ(v.size(), 8u);
    const char *names[] = {"compress", "gcc", "go", "bzip2",
                           "crafty", "gzip", "parser", "twolf"};
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(v[i].name, names[i]);
}

TEST(Profiles, Table2Targets)
{
    // Spot-check the Table 2 misprediction-rate targets.
    EXPECT_NEAR(findProfile("go").targetMissRate, 0.197, 1e-9);
    EXPECT_NEAR(findProfile("parser").targetMissRate, 0.068, 1e-9);
    EXPECT_NEAR(findProfile("compress").condBranchFrac, 0.076, 1e-9);
}

TEST(Profiles, ValidateAcceptsDefaults)
{
    BenchmarkProfile p;
    p.name = "ok";
    EXPECT_NO_FATAL_FAILURE(p.validate());
}

/// Each bound on a custom profile holds at its edge: the value at the
/// bound passes, one past it is fatal and the message names the field.
TEST(Profiles, ValidateBoundsWhatTheProgramStores)
{
    BenchmarkProfile base;
    base.name = "edge";
    // Mean block length = blockLenScale x 1 / 0.5, exactly.
    base.fracJumpTerm = base.fracCallTerm = base.fracRetTerm = 0;
    base.condBranchFrac = 0.5;
    ASSERT_EQ(validateError(base), "");

    struct Edge
    {
        const char *field;
        void (*atBound)(BenchmarkProfile &);
        void (*pastBound)(BenchmarkProfile &);
    };
    const Edge edges[] = {
        {"numBlocks",
         [](BenchmarkProfile &p) { p.numBlocks = 65'536; },
         [](BenchmarkProfile &p) { p.numBlocks = 65'537; }},
        {"blockLenScale",
         [](BenchmarkProfile &p) { p.blockLenScale = 32; },
         [](BenchmarkProfile &p) {
             p.blockLenScale = std::nextafter(32.0, 64.0);
         }},
        {"loopPeriodMax",
         [](BenchmarkProfile &p) { p.loopPeriodMax = 65'535; },
         [](BenchmarkProfile &p) { p.loopPeriodMax = 65'536; }},
        {"dataFootprintKB",
         [](BenchmarkProfile &p) { p.dataFootprintKB = 4'194'303; },
         [](BenchmarkProfile &p) { p.dataFootprintKB = 4'194'304; }},
    };
    for (const Edge &e : edges) {
        SCOPED_TRACE(e.field);
        BenchmarkProfile p = base;
        e.atBound(p);
        EXPECT_EQ(validateError(p), "");
        e.pastBound(p);
        EXPECT_NE(validateError(p).find(e.field), std::string::npos)
            << validateError(p);
    }

    // At the bounds, the program stores the values unwrapped.
    BenchmarkProfile p = base;
    p.loopPeriodMin = p.loopPeriodMax = 65'535;
    p.fracPattern = p.fracBiased = p.fracChaotic = 0;
    p.dataFootprintKB = 4'194'303;
    const StaticProgram prog(p);
    EXPECT_EQ(prog.block(0).loopPeriod, 65'535);
    EXPECT_EQ(prog.region(StaticProgram::kHeapRegion).size,
              4'194'303u * 1024);
}

/// strtod reads "nan" and "inf", so every double of a custom profile
/// can arrive non-finite; each must be fatal, naming the field.
TEST(Profiles, NonFiniteDoublesAreFatal)
{
    BenchmarkProfile base;
    base.name = "edge";
    std::vector<std::string> keys;
    visitFields(base, [&](const char *key, const auto &v) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                     double>)
            keys.push_back(key);
    });
    ASSERT_EQ(keys.size(), 26u);
    for (const std::string &key : keys) {
        for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
            SCOPED_TRACE(key + " = " + std::to_string(bad));
            BenchmarkProfile p = base;
            visitFields(p, [&](const char *k, auto &v) {
                if constexpr (std::is_same_v<
                                  std::remove_cvref_t<decltype(v)>,
                                  double>) {
                    if (k == key)
                        v = bad;
                }
            });
            EXPECT_NE(validateError(p).find(key + " is not finite"),
                      std::string::npos)
                << validateError(p);
        }
    }
}

/// Blocks tile the code segment, and their op ranges tile the
/// program's op array, both in block order.
TEST(StaticProgram, BlocksAreContiguous)
{
    auto prog = smallProgram();
    Addr pc = prog->codeBase();
    std::size_t op = 0;
    for (std::uint32_t i = 0; i < prog->numBlocks(); ++i) {
        EXPECT_EQ(prog->block(i).pc, pc);
        EXPECT_EQ(prog->block(i).opBegin, op);
        pc = prog->block(i).endPc();
        op += prog->block(i).numOps;
    }
    EXPECT_EQ(pc, prog->codeEnd());
    EXPECT_EQ(op, prog->numOps());
}

TEST(StaticProgram, BlockContainingFindsEveryInstruction)
{
    auto prog = smallProgram();
    for (std::uint32_t i = 0; i < prog->numBlocks(); ++i) {
        const StaticBlock &b = prog->block(i);
        EXPECT_EQ(prog->blockContaining(b.pc), i);
        EXPECT_EQ(prog->blockContaining(b.termPc()), i);
    }
}

TEST(StaticProgram, SuccessorsInRange)
{
    auto prog = smallProgram();
    for (std::uint32_t i = 0; i < prog->numBlocks(); ++i) {
        const StaticBlock &b = prog->block(i);
        EXPECT_LT(b.takenTarget, prog->numBlocks());
        EXPECT_LT(b.fallthrough, prog->numBlocks());
        EXPECT_NE(b.takenTarget, i) << "degenerate self-loop";
    }
}

TEST(StaticProgram, DeterministicConstruction)
{
    BenchmarkProfile p = findProfile("twolf");
    StaticProgram a(p), b(p);
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (std::uint32_t i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.block(i).pc, b.block(i).pc);
        EXPECT_EQ(a.block(i).term, b.block(i).term);
        EXPECT_EQ(a.block(i).takenTarget, b.block(i).takenTarget);
    }
}

/// Pins every built-in program, not just the walked prefix: each
/// block's fields and each body op's resolved fields, across all eight
/// benchmarks. A memory op adds its region's base and size, and a
/// Stream op also its stride and stream cursor (the fields the walkers
/// read). Any change to a program, or to the RNG draws that build it,
/// changes the digest.
TEST(StaticProgram, EveryProgramIsPinned)
{
    StreamDigest d;
    std::uint64_t blocks = 0, ops = 0;
    for (const std::string &bench : benchmarkNames()) {
        const StaticProgram prog(findProfile(bench));
        d.mix(prog.numBlocks());
        d.mix(prog.codeEnd());
        for (std::uint32_t i = 0; i < prog.numBlocks(); ++i) {
            const StaticBlock &b = prog.block(i);
            const std::span<const StaticOp> body = prog.ops(b);
            d.mix(b.pc);
            d.mix(body.size());
            d.mix(static_cast<std::uint64_t>(b.term));
            d.mix(b.takenTarget);
            d.mix(b.fallthrough);
            d.mix(b.termSrcDist[0]);
            d.mix(b.termSrcDist[1]);
            d.mix(static_cast<std::uint64_t>(b.behavior));
            d.mix(b.loopPeriod);
            d.mix(std::bit_cast<std::uint32_t>(b.takenP));
            d.mix(b.patternBits);
            d.mix(b.patternSalt);
            for (const StaticOp &op : body) {
                d.mix(static_cast<std::uint64_t>(op.cls));
                d.mix(op.srcDist[0]);
                d.mix(op.srcDist[1]);
                d.mix(op.hasDest);
                if (!isMemory(op.cls))
                    continue;
                const OpRegion r = regionOf(prog, op);
                d.mix(static_cast<std::uint64_t>(op.memPattern));
                d.mix(r.base);
                d.mix(r.size);
                if (op.memPattern == MemPattern::Stream) {
                    d.mix(r.stride);
                    d.mix(r.cursor);
                }
            }
            ops += body.size();
        }
        blocks += prog.numBlocks();
    }
    EXPECT_EQ(blocks, 18'688u);
    EXPECT_EQ(ops, 128'636u);
    EXPECT_EQ(d.h, 0xec22d96832848b2dull);
}

TEST(Workload, DeterministicStream)
{
    auto prog = smallProgram();
    Workload a(prog, 1), b(prog, 1);
    for (int i = 0; i < 5000; ++i) {
        TraceInst x = a.next(), y = b.next();
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.memAddr, y.memAddr);
    }
}

TEST(Workload, SeedChangesOutcomes)
{
    auto prog = smallProgram();
    Workload a(prog, 1), b(prog, 2);
    int diff = 0;
    for (int i = 0; i < 5000; ++i)
        diff += a.next().taken != b.next().taken;
    EXPECT_GT(diff, 0);
}

TEST(Workload, PcChainingIsConsistent)
{
    auto prog = smallProgram();
    Workload w(prog, 3);
    TraceInst prev = w.next();
    for (int i = 0; i < 20000; ++i) {
        TraceInst cur = w.next();
        EXPECT_EQ(cur.pc, prev.npc)
            << "instruction stream must follow npc";
        prev = cur;
    }
}

TEST(Workload, BranchOutcomeMatchesNpc)
{
    auto prog = smallProgram();
    Workload w(prog, 4);
    for (int i = 0; i < 20000; ++i) {
        TraceInst t = w.next();
        if (t.isCondBranch()) {
            EXPECT_EQ(t.npc, t.taken ? t.target : t.pc + 4);
        }
    }
}

TEST(Workload, GlobalHistoryTracksOutcomes)
{
    auto prog = smallProgram();
    Workload w(prog, 5);
    std::uint64_t hist = w.globalHistory();
    for (int i = 0; i < 1000; ++i) {
        TraceInst t = w.next();
        if (t.isCondBranch()) {
            hist = (hist << 1) | (t.taken ? 1 : 0);
            EXPECT_EQ(w.globalHistory(), hist);
        }
    }
}

TEST(Workload, MemoryAddressesInDataSegments)
{
    auto prog = smallProgram();
    const auto &p = prog->profile();
    Workload w(prog, 6);
    Addr data_end = StaticProgram::kDataBase +
                    static_cast<Addr>(p.dataFootprintKB) * 1024;
    for (int i = 0; i < 50000; ++i) {
        TraceInst t = w.next();
        if (isMemory(t.cls)) {
            bool in_heap = t.memAddr >= StaticProgram::kDataBase &&
                           t.memAddr < data_end;
            bool in_stack =
                t.memAddr >= StaticProgram::kStackBase &&
                t.memAddr < StaticProgram::kStackBase +
                                StaticProgram::kStackRegionBytes;
            EXPECT_TRUE(in_heap || in_stack)
                << std::hex << t.memAddr;
        }
    }
}

TEST(WrongPath, StartsAtRequestedPc)
{
    auto prog = smallProgram();
    Workload w(prog, 7);
    Addr start = prog->block(5).pc;
    WrongPathCursor c(w, start, 99);
    EXPECT_EQ(c.next().pc, start);
}

TEST(WrongPath, DoesNotDisturbArchitecturalState)
{
    auto prog = smallProgram();
    Workload a(prog, 8), b(prog, 8);
    // Drain a wrong-path cursor against workload a only.
    WrongPathCursor c(a, prog->block(3).pc, 1);
    for (int i = 0; i < 2000; ++i)
        c.next();
    // a and b must still agree exactly.
    for (int i = 0; i < 5000; ++i) {
        TraceInst x = a.next(), y = b.next();
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.memAddr, y.memAddr);
    }
}

TEST(WrongPath, FollowsItsOwnNpcChain)
{
    auto prog = smallProgram();
    Workload w(prog, 9);
    WrongPathCursor c(w, prog->block(10).pc, 2);
    TraceInst prev = c.next();
    for (int i = 0; i < 5000; ++i) {
        TraceInst cur = c.next();
        EXPECT_EQ(cur.pc, prev.npc);
        prev = cur;
    }
}

TEST(WrongPath, MidBlockStart)
{
    auto prog = smallProgram();
    Workload w(prog, 10);
    // Start one instruction into a block with a body.
    for (std::uint32_t i = 0; i < prog->numBlocks(); ++i) {
        if (prog->block(i).numOps > 0) {
            WrongPathCursor c(w, prog->block(i).pc + 4, 3);
            EXPECT_EQ(c.next().pc, prog->block(i).pc + 4);
            return;
        }
    }
}

/** Property: every profile's walker emits the advertised instruction
 *  classes and a plausible conditional-branch density. */
class ProfileWalk : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProfileWalk, StreamIsWellFormed)
{
    auto prog = std::make_shared<const StaticProgram>(
        findProfile(GetParam()));
    Workload w(prog, 11);
    std::map<InstClass, int> mix;
    int n = 100000;
    TraceInst prev = w.next();
    for (int i = 1; i < n; ++i) {
        TraceInst t = w.next();
        EXPECT_EQ(t.pc, prev.npc);
        ++mix[t.cls];
        prev = t;
    }
    double cond = mix[InstClass::CondBranch] / static_cast<double>(n);
    const auto &p = prog->profile();
    EXPECT_NEAR(cond, p.condBranchFrac, p.condBranchFrac * 0.5)
        << "conditional-branch density off for " << p.name;
    EXPECT_GT(mix[InstClass::Load], 0);
    EXPECT_GT(mix[InstClass::Store], 0);
    EXPECT_GT(mix[InstClass::IntAlu], 0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileWalk,
                         ::testing::Values("compress", "gcc", "go",
                                           "bzip2", "crafty", "gzip",
                                           "parser", "twolf"));
