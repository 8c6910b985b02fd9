/**
 * @file
 * Unit tests for the Selective Throttling policy engine and the
 * speculation controller (incl. Pipeline Gating).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/state_serde.hh"
#include "throttle/controller.hh"
#include "throttle/policy.hh"

using namespace stsim;

TEST(Bandwidth, ActiveCycles)
{
    EXPECT_TRUE(bandwidthActive(BandwidthLevel::Full, 0));
    EXPECT_TRUE(bandwidthActive(BandwidthLevel::Full, 3));
    EXPECT_TRUE(bandwidthActive(BandwidthLevel::Half, 0));
    EXPECT_FALSE(bandwidthActive(BandwidthLevel::Half, 1));
    EXPECT_TRUE(bandwidthActive(BandwidthLevel::Quarter, 4));
    EXPECT_FALSE(bandwidthActive(BandwidthLevel::Quarter, 5));
    EXPECT_FALSE(bandwidthActive(BandwidthLevel::Quarter, 7));
    EXPECT_FALSE(bandwidthActive(BandwidthLevel::Stall, 0));
    EXPECT_FALSE(bandwidthActive(BandwidthLevel::Stall, 12345));
}

TEST(Bandwidth, HalfMeansEveryOtherCycle)
{
    int active = 0;
    for (Cycle c = 0; c < 100; ++c)
        active += bandwidthActive(BandwidthLevel::Half, c);
    EXPECT_EQ(active, 50);
}

TEST(Bandwidth, QuarterMeansOneInFour)
{
    int active = 0;
    for (Cycle c = 0; c < 100; ++c)
        active += bandwidthActive(BandwidthLevel::Quarter, c);
    EXPECT_EQ(active, 25);
}

TEST(Bandwidth, RestrictionOrdering)
{
    EXPECT_EQ(maxRestriction(BandwidthLevel::Full,
                             BandwidthLevel::Half),
              BandwidthLevel::Half);
    EXPECT_EQ(maxRestriction(BandwidthLevel::Stall,
                             BandwidthLevel::Quarter),
              BandwidthLevel::Stall);
}

TEST(Policy, PaperExperimentDefinitions)
{
    // A5: LC fetch/4, VLC fetch stall.
    ThrottlePolicy a5 = ThrottlePolicy::byName("A5");
    EXPECT_EQ(a5.action(ConfLevel::LC).fetch, BandwidthLevel::Quarter);
    EXPECT_EQ(a5.action(ConfLevel::VLC).fetch, BandwidthLevel::Stall);
    EXPECT_FALSE(a5.action(ConfLevel::LC).noSelect);
    EXPECT_TRUE(a5.action(ConfLevel::VHC).isNull());
    EXPECT_TRUE(a5.action(ConfLevel::HC).isNull());

    // C2 = A5 + no-select on LC (the headline configuration).
    ThrottlePolicy c2 = ThrottlePolicy::byName("C2");
    EXPECT_EQ(c2.action(ConfLevel::LC).fetch, BandwidthLevel::Quarter);
    EXPECT_TRUE(c2.action(ConfLevel::LC).noSelect);
    EXPECT_EQ(c2.action(ConfLevel::VLC).fetch, BandwidthLevel::Stall);

    // B3: decode stall on LC, fetch untouched on LC.
    ThrottlePolicy b3 = ThrottlePolicy::byName("B3");
    EXPECT_EQ(b3.action(ConfLevel::LC).fetch, BandwidthLevel::Full);
    EXPECT_EQ(b3.action(ConfLevel::LC).decode, BandwidthLevel::Stall);
}

TEST(Policy, AllNamedExperimentsResolve)
{
    for (const auto &name : ThrottlePolicy::experimentNames())
        EXPECT_NO_FATAL_FAILURE(ThrottlePolicy::byName(name));
    EXPECT_EQ(ThrottlePolicy::experimentNames().size(), 20u);
}

TEST(Policy, BaselineIsNull)
{
    EXPECT_TRUE(ThrottlePolicy::byName("baseline").isNull());
}

namespace
{

SpeculationController
makeSelective(const std::string &policy)
{
    SpecControlConfig cfg;
    cfg.mode = SpecControlMode::Selective;
    cfg.policy = ThrottlePolicy::byName(policy);
    return SpeculationController(cfg);
}

} // namespace

TEST(Controller, NoneModeNeverGates)
{
    SpeculationController c{SpecControlConfig{}};
    c.onCondBranchFetched(1, ConfLevel::VLC);
    EXPECT_TRUE(c.fetchActive(0));
    EXPECT_TRUE(c.fetchActive(1));
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
}

TEST(Controller, VlcStallsFetchUntilResolved)
{
    auto c = makeSelective("A5");
    c.onCondBranchFetched(10, ConfLevel::VLC);
    EXPECT_FALSE(c.fetchActive(0));
    EXPECT_FALSE(c.fetchActive(3));
    c.onBranchResolved(10);
    EXPECT_TRUE(c.fetchActive(0));
}

TEST(Controller, LcQuarterThrottle)
{
    auto c = makeSelective("A5");
    c.onCondBranchFetched(10, ConfLevel::LC);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Quarter);
    EXPECT_TRUE(c.fetchActive(0));
    EXPECT_FALSE(c.fetchActive(1));
}

TEST(Controller, HighConfidenceTriggersNothing)
{
    auto c = makeSelective("C2");
    c.onCondBranchFetched(10, ConfLevel::VHC);
    c.onCondBranchFetched(11, ConfLevel::HC);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Full);
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
}

TEST(Controller, MonotonicUpgradeRule)
{
    // 4.2: a later LC/VLC branch may tighten the heuristic, and
    // resolving the tighter branch falls back to the looser one.
    auto c = makeSelective("A5");
    c.onCondBranchFetched(10, ConfLevel::LC);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Quarter);
    c.onCondBranchFetched(11, ConfLevel::VLC);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Stall);
    c.onBranchResolved(11);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Quarter);
    c.onBranchResolved(10);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Full);
}

TEST(Controller, NoSelectBarrierIsOldestNoSelectBranch)
{
    auto c = makeSelective("C2"); // LC carries no-select
    c.onCondBranchFetched(10, ConfLevel::HC);
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
    c.onCondBranchFetched(20, ConfLevel::LC);
    c.onCondBranchFetched(30, ConfLevel::LC);
    EXPECT_EQ(c.noSelectBarrier(), 20u);
    c.onBranchResolved(20);
    EXPECT_EQ(c.noSelectBarrier(), 30u);
    c.onBranchResolved(30);
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
}

TEST(Controller, VlcDoesNotSetNoSelectInC2)
{
    // The paper's C2 legend attaches noselect to LC only.
    auto c = makeSelective("C2");
    c.onCondBranchFetched(10, ConfLevel::VLC);
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Stall);
}

TEST(Controller, SquashDropsYoungerTracked)
{
    auto c = makeSelective("A5");
    c.onCondBranchFetched(10, ConfLevel::LC);
    c.onCondBranchFetched(20, ConfLevel::VLC);
    c.onCondBranchFetched(30, ConfLevel::VLC);
    c.squashYoungerThan(15);
    EXPECT_EQ(c.outstanding(), 1u);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Quarter); // LC remains
}

TEST(Controller, ResolveUnknownSeqIsIgnored)
{
    auto c = makeSelective("A5");
    c.onCondBranchFetched(10, ConfLevel::LC);
    c.onBranchResolved(999);
    EXPECT_EQ(c.outstanding(), 1u);
}

TEST(Controller, DecodeThrottling)
{
    auto c = makeSelective("B3"); // LC: decode stall
    c.onCondBranchFetched(10, ConfLevel::LC);
    EXPECT_TRUE(c.fetchActive(0));
    EXPECT_FALSE(c.decodeActive(0));
    c.onBranchResolved(10);
    EXPECT_TRUE(c.decodeActive(0));
}

TEST(PipelineGating, GatesAboveThreshold)
{
    SpecControlConfig cfg;
    cfg.mode = SpecControlMode::PipelineGating;
    cfg.gatingThreshold = 2;
    SpeculationController c(cfg);

    c.onCondBranchFetched(1, ConfLevel::LC);
    c.onCondBranchFetched(2, ConfLevel::LC);
    EXPECT_TRUE(c.fetchActive(0)) << "M == threshold: not gated";
    c.onCondBranchFetched(3, ConfLevel::LC);
    EXPECT_FALSE(c.fetchActive(0)) << "M > threshold: gated";
    c.onBranchResolved(1);
    EXPECT_TRUE(c.fetchActive(0));
}

TEST(PipelineGating, HighConfidenceDoesNotCount)
{
    SpecControlConfig cfg;
    cfg.mode = SpecControlMode::PipelineGating;
    cfg.gatingThreshold = 2;
    SpeculationController c(cfg);
    for (InstSeq s = 1; s <= 10; ++s)
        c.onCondBranchFetched(s, ConfLevel::HC);
    EXPECT_TRUE(c.fetchActive(0));
    EXPECT_EQ(c.lowConfOutstanding(), 0u);
}

TEST(PipelineGating, NeverTouchesDecodeOrSelect)
{
    SpecControlConfig cfg;
    cfg.mode = SpecControlMode::PipelineGating;
    SpeculationController c(cfg);
    for (InstSeq s = 1; s <= 5; ++s)
        c.onCondBranchFetched(s, ConfLevel::VLC);
    EXPECT_TRUE(c.decodeActive(0));
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
}

TEST(Controller, GatedCycleStats)
{
    auto c = makeSelective("A6"); // LC+VLC: fetch stall
    c.onCondBranchFetched(1, ConfLevel::LC);
    for (Cycle cyc = 0; cyc < 10; ++cyc)
        c.tickStats(cyc);
    EXPECT_EQ(c.fetchGatedCycles(), 10u);
    EXPECT_EQ(c.decodeGatedCycles(), 0u);
}

/** Property: for every named policy, LC is never more restrictive
 *  than VLC on the same stage (the paper's aggressiveness ordering). */
class PolicyOrdering : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PolicyOrdering, VlcAtLeastAsAggressiveAsLc)
{
    ThrottlePolicy p = ThrottlePolicy::byName(GetParam());
    const auto &lc = p.action(ConfLevel::LC);
    const auto &vlc = p.action(ConfLevel::VLC);
    EXPECT_GE(static_cast<int>(maxRestriction(lc.fetch, vlc.fetch)),
              static_cast<int>(lc.fetch));
    EXPECT_EQ(maxRestriction(lc.fetch, vlc.fetch), vlc.fetch)
        << "VLC fetch response must dominate LC's";
}

INSTANTIATE_TEST_SUITE_P(
    AllFetchPolicies, PolicyOrdering,
    ::testing::Values("A1", "A2", "A3", "A4", "A5", "A6", "C1", "C2"));

namespace
{

/**
 * Reference semantics for the incremental SpeculationController: the
 * original implementation's full rescan of every outstanding branch
 * on each event. The production controller must agree with this on
 * every derived output after every event.
 */
class ReferenceController
{
  public:
    explicit ReferenceController(const SpecControlConfig &cfg)
        : cfg_(cfg)
    {
    }

    void
    fetched(InstSeq seq, ConfLevel lvl)
    {
        if (cfg_.mode == SpecControlMode::None)
            return;
        tracked_.push_back({seq, lvl});
        recompute();
    }

    void
    resolved(InstSeq seq)
    {
        if (cfg_.mode == SpecControlMode::None)
            return;
        auto it = std::find_if(tracked_.begin(), tracked_.end(),
                               [seq](const auto &t) {
                                   return t.first == seq;
                               });
        if (it == tracked_.end())
            return;
        tracked_.erase(it);
        recompute();
    }

    void
    squashed(InstSeq seq)
    {
        if (cfg_.mode == SpecControlMode::None)
            return;
        while (!tracked_.empty() && tracked_.back().first > seq)
            tracked_.pop_back();
        recompute();
    }

    BandwidthLevel fetchLevel = BandwidthLevel::Full;
    BandwidthLevel decodeLevel = BandwidthLevel::Full;
    InstSeq noSelectBarrier = kInvalidSeq;
    InstSeq decodeBarrier = kInvalidSeq;
    std::size_t outstanding = 0;
    unsigned lowConf = 0;

  private:
    void
    recompute()
    {
        fetchLevel = BandwidthLevel::Full;
        decodeLevel = BandwidthLevel::Full;
        noSelectBarrier = kInvalidSeq;
        decodeBarrier = kInvalidSeq;
        outstanding = tracked_.size();
        lowConf = 0;
        for (const auto &[seq, lvl] : tracked_)
            if (isLowConfidence(lvl))
                ++lowConf;

        switch (cfg_.mode) {
          case SpecControlMode::None:
            return;
          case SpecControlMode::PipelineGating:
            if (lowConf > cfg_.gatingThreshold)
                fetchLevel = BandwidthLevel::Stall;
            return;
          case SpecControlMode::Selective:
            for (const auto &[seq, lvl] : tracked_) {
                const ThrottleAction &a = cfg_.policy.action(lvl);
                fetchLevel = maxRestriction(fetchLevel, a.fetch);
                decodeLevel = maxRestriction(decodeLevel, a.decode);
                if (a.noSelect && noSelectBarrier == kInvalidSeq)
                    noSelectBarrier = seq;
                if (a.decode != BandwidthLevel::Full &&
                    decodeBarrier == kInvalidSeq) {
                    decodeBarrier = seq;
                }
            }
            return;
        }
    }

    SpecControlConfig cfg_;
    std::vector<std::pair<InstSeq, ConfLevel>> tracked_;
};

/** Drive both controllers through one random fetch/resolve/squash
 *  stream, asserting equivalence after every event. Every 300 events
 *  the stream continues on a fresh controller restored from a snapshot
 *  of the current one, so loadState's replay is held to the same
 *  reference. */
void
runEquivalenceStream(const SpecControlConfig &cfg, std::uint64_t seed,
                     int events)
{
    SpeculationController c(cfg);
    ReferenceController ref(cfg);
    Rng rng(seed);
    std::vector<InstSeq> live; // outstanding seqs, ascending
    InstSeq next_seq = 1;

    auto check = [&](int step) {
        ASSERT_EQ(c.fetchLevel(), ref.fetchLevel) << "step " << step;
        ASSERT_EQ(c.decodeLevel(), ref.decodeLevel) << "step " << step;
        ASSERT_EQ(c.noSelectBarrier(), ref.noSelectBarrier)
            << "step " << step;
        ASSERT_EQ(c.decodeBarrier(), ref.decodeBarrier)
            << "step " << step;
        ASSERT_EQ(c.outstanding(), ref.outstanding) << "step " << step;
        ASSERT_EQ(c.lowConfOutstanding(), ref.lowConf)
            << "step " << step;
    };

    for (int i = 0; i < events; ++i) {
        std::uint64_t pick = rng.below(100);
        if (pick < 55 || live.empty()) {
            // Fetch a conditional branch with a random confidence
            // level and a (possibly gappy) ascending seq.
            next_seq += 1 + rng.below(7);
            auto lvl = static_cast<ConfLevel>(rng.below(4));
            c.onCondBranchFetched(next_seq, lvl);
            ref.fetched(next_seq, lvl);
            live.push_back(next_seq);
        } else if (pick < 85) {
            // Resolve a random outstanding branch (out of order), or
            // occasionally an unknown seq (must be ignored).
            InstSeq seq;
            if (rng.below(10) == 0) {
                seq = next_seq + 1000; // never tracked
            } else {
                std::size_t idx = rng.below(live.size());
                seq = live[idx];
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            }
            c.onBranchResolved(seq);
            ref.resolved(seq);
        } else {
            // Squash somewhere in the live window (or above it).
            InstSeq seq = live.empty()
                              ? next_seq
                              : live[rng.below(live.size())];
            if (rng.below(4) == 0)
                seq += rng.below(20); // cut between tracked seqs
            c.squashYoungerThan(seq);
            ref.squashed(seq);
            live.erase(std::upper_bound(live.begin(), live.end(),
                                        seq),
                       live.end());
        }
        check(i);
        if (::testing::Test::HasFatalFailure())
            return;

        if (i % 300 == 299) {
            serde::StateWriter w;
            c.saveState(w);
            const std::string image = w.take();
            SpeculationController restored(cfg);
            serde::StateReader r(image);
            restored.loadState(r);
            r.finish();
            c = std::move(restored);
            check(i);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

} // namespace

/** Randomized equivalence: the incremental controller matches the
 *  full-rescan reference on every output, for every named Selective
 *  policy, across long out-of-order event streams. */
class ControllerEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ControllerEquivalence, MatchesFullRescanReference)
{
    SpecControlConfig cfg;
    cfg.mode = SpecControlMode::Selective;
    cfg.policy = ThrottlePolicy::byName(GetParam());
    runEquivalenceStream(cfg, 0xC0FFEE ^ std::hash<std::string>{}(
                                             GetParam()),
                         6000);
}

INSTANTIATE_TEST_SUITE_P(
    AllNamedPolicies, ControllerEquivalence,
    ::testing::ValuesIn(ThrottlePolicy::experimentNames()));

TEST(ControllerEquivalence, PipelineGatingThresholds)
{
    for (unsigned threshold : {1u, 2u, 4u, 8u}) {
        SpecControlConfig cfg;
        cfg.mode = SpecControlMode::PipelineGating;
        cfg.gatingThreshold = threshold;
        runEquivalenceStream(cfg, 1234 + threshold, 6000);
    }
}

TEST(ControllerEquivalence, NoneModeStaysInert)
{
    SpecControlConfig cfg; // mode None
    runEquivalenceStream(cfg, 42, 2000);
}

TEST(ControllerEquivalence, StressRingGrowth)
{
    // Long monotone bursts with rare resolutions force the tracked
    // window and the seq-index ring through their growth paths.
    SpecControlConfig cfg;
    cfg.mode = SpecControlMode::Selective;
    cfg.policy = ThrottlePolicy::byName("C2");
    SpeculationController c(cfg);
    std::vector<InstSeq> live;
    Rng rng(7);
    InstSeq seq = 1;
    for (int i = 0; i < 3000; ++i) {
        seq += 1 + rng.below(3);
        c.onCondBranchFetched(seq, static_cast<ConfLevel>(
                                       rng.below(4)));
        live.push_back(seq);
        if (rng.below(100) < 3 && !live.empty()) {
            std::size_t idx = rng.below(live.size());
            c.onBranchResolved(live[idx]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        }
    }
    EXPECT_EQ(c.outstanding(), live.size());
    // Drain everything; the controller must return to quiescence.
    for (InstSeq s : live)
        c.onBranchResolved(s);
    EXPECT_EQ(c.outstanding(), 0u);
    EXPECT_EQ(c.fetchLevel(), BandwidthLevel::Full);
    EXPECT_EQ(c.noSelectBarrier(), kInvalidSeq);
    EXPECT_EQ(c.decodeBarrier(), kInvalidSeq);
}
