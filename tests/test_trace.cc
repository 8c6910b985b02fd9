/**
 * @file
 * Unit and property tests for the synthetic workload generator:
 * profiles, static program construction, correct-path walking and
 * wrong-path cursors.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

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
        // Offsets 0..ops.size(): the block start, any body op, or the
        // terminator itself.
        const Addr start = b.pc + 4 * rng.below(b.ops.size() + 1);
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

TEST(StaticProgram, BlocksAreContiguous)
{
    auto prog = smallProgram();
    Addr pc = prog->codeBase();
    for (std::uint32_t i = 0; i < prog->numBlocks(); ++i) {
        EXPECT_EQ(prog->block(i).pc, pc);
        pc = prog->block(i).endPc();
    }
    EXPECT_EQ(pc, prog->codeEnd());
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
        if (!prog->block(i).ops.empty()) {
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
