/**
 * @file
 * Unit tests for the round-admission policies of runtime/window.h: the
 * adaptive commit-ratio window and the reservation prefix. The exact
 * arithmetic matters: the golden-digest harness pins schedules that
 * depend on every rounding decision here.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "runtime/window.h"

using galois::runtime::DetResOptions;
using galois::runtime::ReservationPolicy;
using galois::runtime::WindowConfig;
using galois::runtime::WindowPolicy;

namespace {

WindowPolicy
makePolicy(double target = 0.95, std::uint64_t min_window = 16,
           std::uint64_t initial = 0)
{
    WindowConfig cfg;
    cfg.commitTarget = target;
    cfg.minWindow = min_window;
    cfg.initialWindow = initial;
    WindowPolicy p(cfg);
    p.beginGeneration();
    return p;
}

} // namespace

TEST(WindowPolicy, DefaultInitialWindowIsFourTimesMin)
{
    EXPECT_EQ(makePolicy(0.95, 16).size(), 64u);
    EXPECT_EQ(makePolicy(0.95, 5).size(), 20u);
}

TEST(WindowPolicy, ExplicitInitialWindowWins)
{
    EXPECT_EQ(makePolicy(0.95, 16, 100).size(), 100u);
}

TEST(WindowPolicy, GrowsByDoublingOnCommitRatioAtOrAboveTarget)
{
    WindowPolicy p = makePolicy(0.95, 16);
    p.update(64, 64); // ratio 1.0
    EXPECT_EQ(p.size(), 128u);
    p.update(128, 122); // ratio ~0.953 >= 0.95
    EXPECT_EQ(p.size(), 256u);
}

TEST(WindowPolicy, ShrinksProportionallyBelowTarget)
{
    WindowPolicy p = makePolicy(0.95, 16, 1000);
    p.update(1000, 475); // ratio 0.475 -> 1000 * 0.475/0.95 = 500
    EXPECT_EQ(p.size(), 500u);
    p.update(500, 250); // ratio 0.5 -> 500 * 0.5/0.95 = 263.15.. -> 263
    EXPECT_EQ(p.size(), 263u);
}

TEST(WindowPolicy, ShrinkClampsAtMinWindow)
{
    WindowPolicy p = makePolicy(0.95, 16, 64);
    p.update(64, 1); // would shrink to ~1
    EXPECT_EQ(p.size(), 16u);
    p.update(16, 0); // zero commits: still clamped
    EXPECT_EQ(p.size(), 16u);
}

TEST(WindowPolicy, EmptyRoundCountsAsFullCommit)
{
    WindowPolicy p = makePolicy(0.95, 16);
    p.update(0, 0); // attempted == 0 -> ratio 1.0 -> grow
    EXPECT_EQ(p.size(), 128u);
}

TEST(WindowPolicy, CommitRatioExactlyZeroFloorsAtMinWindowInOneStep)
{
    // Ratio exactly 0 is the worst round the policy can observe: the
    // proportional shrink computes window * 0 and the clamp must catch
    // it immediately — no gradual decay, no underflow to zero.
    WindowPolicy p = makePolicy(0.95, 16, std::uint64_t(1) << 20);
    p.update(std::uint64_t(1) << 20, 0);
    EXPECT_EQ(p.size(), 16u);
}

TEST(WindowPolicy, CommitRatioExactlyOneDoublesFromAnySize)
{
    // Ratio exactly 1 sits on the >= commitTarget boundary and must
    // take the doubling branch, not the proportional one (which would
    // only grow by 1/commitTarget).
    WindowPolicy p = makePolicy(0.95, 16, 1000);
    p.update(1000, 1000);
    EXPECT_EQ(p.size(), 2000u);
    p.update(2000, 2000);
    EXPECT_EQ(p.size(), 4000u);
}

TEST(WindowPolicy, WindowClampsToSingleTask)
{
    // minWindow 1: the policy may shrink all the way to a one-task
    // window (a fully serial round — the degenerate schedule every
    // workload can make progress under) and must recover by doubling.
    WindowPolicy p = makePolicy(0.95, /*min_window=*/1);
    EXPECT_EQ(p.size(), 4u); // beginGeneration seeds 4 * minWindow
    p.update(4, 0);
    EXPECT_EQ(p.size(), 1u);
    p.update(1, 0); // all-abort at window 1: pinned at the floor
    EXPECT_EQ(p.size(), 1u);
    p.update(1, 1); // ratio exactly 1 climbs back out
    EXPECT_EQ(p.size(), 2u);
}

TEST(WindowPolicy, GrowthCapsInsteadOfOverflowing)
{
    WindowPolicy p = makePolicy(0.95, 16);
    for (int i = 0; i < 80; ++i)
        p.update(10, 10);
    // Doubling stops once the window passes 2^40; it never wraps.
    EXPECT_GE(p.size(), std::uint64_t(1) << 40);
    EXPECT_LE(p.size(), std::uint64_t(1) << 41);
}

TEST(ReservationPolicy, EqualRoundSizeAndPrefixIsAFixedWindow)
{
    // roundSize == initialPrefix pins every round at that size whatever
    // commits: the hand-tuned fixed window of the window-policy ablation.
    DetResOptions opt;
    opt.roundSize = 911;
    opt.initialPrefix = 911;
    ReservationPolicy p(opt);
    p.beginGeneration();
    EXPECT_EQ(p.size(), 911u);
    p.update(911, 911);
    EXPECT_EQ(p.size(), 911u);
    p.update(911, 3);
    EXPECT_EQ(p.size(), 911u);
    p.update(911, 0);
    EXPECT_EQ(p.size(), 911u);
    p.beginGeneration();
    EXPECT_EQ(p.size(), 911u);
}

TEST(WindowPolicy, WindowPersistsAcrossGenerations)
{
    WindowPolicy p = makePolicy(0.95, 16);
    p.update(64, 64);
    p.update(128, 128);
    EXPECT_EQ(p.size(), 256u);
    p.beginGeneration(); // adaptive window carries over, no re-warm
    EXPECT_EQ(p.size(), 256u);
}

TEST(WindowPolicy, UpdateSequenceIsPure)
{
    // Identical (attempted, committed) sequences give identical sizes —
    // the property the deterministic scheduler's portability rests on.
    auto run = [] {
        WindowPolicy p = makePolicy(0.9, 8);
        std::uint64_t acc = 0;
        const std::uint64_t attempts[] = {32, 64, 128, 90, 45, 45, 90};
        const std::uint64_t commits[] = {32, 60, 40, 89, 45, 20, 90};
        for (int i = 0; i < 7; ++i) {
            p.update(attempts[i], commits[i]);
            acc = acc * 31 + p.size();
        }
        return acc;
    };
    EXPECT_EQ(run(), run());
}
