/**
 * @file
 * Unit tests for the operator-facing context and the mark protocol —
 * the mechanisms of Figures 1b and 3 in isolation (executor-free).
 */

#include <gtest/gtest.h>

#include "runtime/context.h"
#include "runtime/lockable.h"

using namespace galois::runtime;

namespace {

struct Fixture
{
    ThreadStats stats;
    UserContext<int> ctx;
    std::vector<Lockable*> nbhd;

    Fixture() { ctx.bindStats(&stats); }

    void
    begin(UserContext<int>::Mode mode, MarkOwner* owner,
          void** slot = nullptr, void (**del)(void*) = nullptr)
    {
        ctx.beginTask(mode, owner, &nbhd, slot, del);
    }
};

} // namespace

// ---------------------------------------------------------------------
// Lockable / mark protocol
// ---------------------------------------------------------------------

TEST(Lockable, TryAcquireSemantics)
{
    Lockable l;
    MarkOwner a, b;
    EXPECT_EQ(l.owner(), nullptr);
    EXPECT_TRUE(l.tryAcquire(&a));
    EXPECT_TRUE(l.tryAcquire(&a)); // re-entrant for the same owner
    EXPECT_FALSE(l.tryAcquire(&b));
    l.releaseIfOwner(&b); // not the owner: no-op
    EXPECT_EQ(l.owner(), &a);
    l.releaseIfOwner(&a);
    EXPECT_EQ(l.owner(), nullptr);
}

TEST(Lockable, ReleaseIfHeldByClearsOnlyForTheHolder)
{
    Lockable l;
    DetRecordBase a, b;
    a.id = 1;
    b.id = 2;
    l.releaseIfHeldBy(&a); // free: stays free
    EXPECT_EQ(l.owner(), nullptr);
    l.forceOwner(&a);
    l.releaseIfHeldBy(&b); // not the holder: no-op
    EXPECT_EQ(l.owner(), &a);
    l.releaseIfHeldBy(&a);
    EXPECT_EQ(l.owner(), nullptr);
    l.releaseIfHeldBy(&a); // repeat (duplicate lane entry): no-op
    EXPECT_EQ(l.owner(), nullptr);
}

TEST(Lockable, MarkMaxKeepsLargestId)
{
    // markMax: the PBBS reservation engine's primitive (priorities are
    // encoded so larger = earlier there).
    Lockable l;
    DetRecordBase lo, mid, hi;
    lo.id = 1;
    mid.id = 5;
    hi.id = 9;

    MarkOwner* displaced = nullptr;
    EXPECT_TRUE(l.markMax(&mid, displaced));
    EXPECT_EQ(displaced, nullptr);

    // Smaller id loses and does not change the mark.
    EXPECT_FALSE(l.markMax(&lo, displaced));
    EXPECT_EQ(l.owner(), &mid);

    // Larger id wins and reports whom it displaced.
    EXPECT_TRUE(l.markMax(&hi, displaced));
    EXPECT_EQ(displaced, &mid);
    EXPECT_EQ(l.owner(), &hi);

    // Re-marking by the current owner is a no-op success.
    EXPECT_TRUE(l.markMax(&hi, displaced));
    EXPECT_EQ(displaced, nullptr);
}

TEST(Lockable, MarkMinKeepsSmallestId)
{
    // markMin: the deterministic executors' id-order mark — every
    // location ends up owned by the earliest task that touched it.
    Lockable l;
    DetRecordBase lo, mid, hi;
    lo.id = 1;
    mid.id = 5;
    hi.id = 9;

    MarkOwner* displaced = nullptr;
    EXPECT_TRUE(l.markMin(&mid, displaced));
    EXPECT_EQ(displaced, nullptr);

    // Larger id loses and does not change the mark.
    EXPECT_FALSE(l.markMin(&hi, displaced));
    EXPECT_EQ(l.owner(), &mid);

    // Smaller id wins and reports whom it displaced.
    EXPECT_TRUE(l.markMin(&lo, displaced));
    EXPECT_EQ(displaced, &mid);
    EXPECT_EQ(l.owner(), &lo);

    // Re-marking by the current owner is a no-op success.
    EXPECT_TRUE(l.markMin(&lo, displaced));
    EXPECT_EQ(displaced, nullptr);
}

TEST(Lockable, CopyingResetsOwnership)
{
    Lockable l;
    MarkOwner a;
    ASSERT_TRUE(l.tryAcquire(&a));
    Lockable copy(l);
    EXPECT_EQ(copy.owner(), nullptr); // marks are execution state
}

// ---------------------------------------------------------------------
// Context modes
// ---------------------------------------------------------------------

TEST(Context, SerialModeNeverThrowsOrMarks)
{
    Fixture f;
    Lockable l;
    f.begin(UserContext<int>::Mode::Serial, nullptr);
    EXPECT_NO_THROW(f.ctx.acquire(l));
    EXPECT_FALSE(f.ctx.tryCautiousPoint());
    EXPECT_EQ(l.owner(), nullptr);
}

TEST(Context, NonDetAcquireThrowsOnConflict)
{
    Fixture mine, theirs;
    MarkOwner me, them;
    Lockable l;

    theirs.begin(UserContext<int>::Mode::NonDet, &them);
    theirs.ctx.acquire(l);
    EXPECT_EQ(l.owner(), &them);

    mine.begin(UserContext<int>::Mode::NonDet, &me);
    EXPECT_THROW(mine.ctx.acquire(l), ConflictSignal);
    EXPECT_EQ(mine.stats.atomicOps, 1u);
}

TEST(Context, EagerInspectMarksAllAndFlagsLosers)
{
    // Eager protocol (DetInspectEager, the det-ref oracle's): task lo
    // steals a location from later-id task hi; hi must end up flagged,
    // and a task that loses a markMin must flag itself.
    DetRecordBase lo, hi;
    lo.id = 1;
    hi.id = 2;
    Lockable l1, l2;

    Fixture fhi;
    fhi.begin(UserContext<int>::Mode::DetInspectEager, &hi);
    fhi.ctx.acquire(l1);
    fhi.ctx.acquire(l2);
    EXPECT_EQ(fhi.nbhd.size(), 2u);
    EXPECT_FALSE(hi.notSelected.load());

    Fixture flo;
    flo.begin(UserContext<int>::Mode::DetInspectEager, &lo);
    flo.ctx.acquire(l1); // steals from hi -> flags hi
    EXPECT_TRUE(hi.notSelected.load());
    EXPECT_FALSE(lo.notSelected.load());

    // Now hi re-inspects l1 (owned by lo): it must flag itself and keep
    // going (the id-order mark never fails early).
    hi.notSelected.store(false);
    Fixture fhi2;
    fhi2.begin(UserContext<int>::Mode::DetInspectEager, &hi);
    EXPECT_NO_THROW(fhi2.ctx.acquire(l1));
    EXPECT_TRUE(hi.notSelected.load());
    EXPECT_EQ(l1.owner(), &lo);
}

TEST(Context, CollectInspectAppendsToLaneWithoutMarking)
{
    // Batched protocol (DetInspect): acquires only append to the
    // per-thread collection lane — no mark traffic, no atomics, no
    // dedup (the serial fold handles duplicates).
    DetRecordBase r;
    r.id = 5;
    Lockable l1, l2;
    std::vector<Lockable*> lane;
    void* slot = nullptr;
    void (*del)(void*) = nullptr;

    Fixture f;
    f.ctx.beginInspect(&r, &lane, &slot, &del);
    f.ctx.acquire(l1);
    f.ctx.acquire(l2);
    f.ctx.acquire(l1); // duplicate: appended verbatim
    ASSERT_EQ(lane.size(), 3u);
    EXPECT_EQ(lane[0], &l1);
    EXPECT_EQ(lane[1], &l2);
    EXPECT_EQ(lane[2], &l1);
    EXPECT_EQ(l1.owner(), nullptr);
    EXPECT_EQ(l2.owner(), nullptr);
    EXPECT_EQ(f.stats.atomicOps, 0u);
}

TEST(Context, FoldClaimsInIdOrderAndFlagsLosers)
{
    // The serial fold primitive (runtime/conflict.h): replaying two
    // tasks' collected sets in ascending id order must leave the marks
    // and flags exactly as the eager protocol would. The fold keeps no
    // release list: each owner's thread clears its marks afterwards.
    DetRecordBase lo, hi;
    lo.id = 1;
    hi.id = 2;
    Lockable l1, l2, l3;

    // lo collected {l1, l2, l1 (dup)}; hi collected {l1, l3}. Folded in
    // ascending id order, the earlier task keeps every contested
    // location and the later claimant flags itself.
    EXPECT_EQ(claimMarkFold(l1, &lo), Claim::Installed);
    EXPECT_EQ(claimMarkFold(l2, &lo), Claim::Installed);
    EXPECT_EQ(claimMarkFold(l1, &lo), Claim::Duplicate);
    EXPECT_EQ(claimMarkFold(l1, &hi), Claim::Lost); // flags hi
    EXPECT_EQ(claimMarkFold(l3, &hi), Claim::Installed);

    EXPECT_EQ(l1.owner(), &lo);
    EXPECT_EQ(l2.owner(), &lo);
    EXPECT_EQ(l3.owner(), &hi);
    EXPECT_TRUE(hi.notSelected.load());
    EXPECT_FALSE(lo.notSelected.load());

    // Owner release over each task's collected set: the loser's walk
    // clears only what it holds, never the winner's l1.
    for (Lockable* l : {&l1, &l3})
        l->releaseIfHeldBy(&hi);
    EXPECT_EQ(l1.owner(), &lo);
    EXPECT_EQ(l3.owner(), nullptr);
    for (Lockable* l : {&l1, &l2, &l1})
        l->releaseIfHeldBy(&lo);
    EXPECT_EQ(l1.owner(), nullptr);
    EXPECT_EQ(l2.owner(), nullptr);
}

TEST(Context, DetCommitAcquireIsNoOp)
{
    // Selection was decided by the flag before the operator ran; a
    // commit-phase acquire neither checks nor writes marks.
    DetRecordBase r;
    r.id = 4;
    Lockable l;
    Fixture f;
    f.ctx.beginResume(&r, nullptr, 0, nullptr, nullptr);
    EXPECT_NO_THROW(f.ctx.acquire(l));
    EXPECT_EQ(l.owner(), nullptr);
    EXPECT_EQ(f.stats.atomicOps, 0u);
}

TEST(Context, TryCautiousPointReturnsTrueOnlyDuringInspect)
{
    DetRecordBase r;
    r.id = 6;
    std::vector<Lockable*> lane;
    Fixture f;

    f.ctx.beginInspect(&r, &lane, nullptr, nullptr);
    EXPECT_TRUE(f.ctx.tryCautiousPoint());

    f.begin(UserContext<int>::Mode::DetInspectEager, &r);
    EXPECT_TRUE(f.ctx.tryCautiousPoint());

    f.begin(UserContext<int>::Mode::Serial, nullptr);
    EXPECT_FALSE(f.ctx.tryCautiousPoint());
    f.begin(UserContext<int>::Mode::NonDet, &r);
    EXPECT_FALSE(f.ctx.tryCautiousPoint());
    f.begin(UserContext<int>::Mode::DetCheck, &r);
    EXPECT_FALSE(f.ctx.tryCautiousPoint());
    f.ctx.beginResume(&r, nullptr, 0, nullptr, nullptr);
    EXPECT_FALSE(f.ctx.tryCautiousPoint());
}

TEST(Context, CheckModeVerifiesMarks)
{
    DetRecordBase mine, winner;
    mine.id = 1;
    winner.id = 2;
    Lockable held, stolen;
    MarkOwner* d = nullptr;
    held.markMax(&mine, d);
    stolen.markMax(&winner, d);

    Fixture f;
    f.begin(UserContext<int>::Mode::DetCheck, &mine);
    EXPECT_NO_THROW(f.ctx.acquire(held));
    EXPECT_THROW(f.ctx.acquire(stolen), ConflictSignal);
}

TEST(Context, PushIgnoredDuringInspect)
{
    DetRecordBase r;
    r.id = 7;
    Fixture f;
    f.begin(UserContext<int>::Mode::DetInspectEager, &r);
    f.ctx.push(42);
    EXPECT_TRUE(f.ctx.pendingPushes().empty());

    std::vector<Lockable*> lane;
    f.ctx.beginInspect(&r, &lane, nullptr, nullptr);
    f.ctx.push(42);
    EXPECT_TRUE(f.ctx.pendingPushes().empty());

    f.begin(UserContext<int>::Mode::DetCheck, &r);
    f.ctx.push(42);
    f.ctx.push(43, /*preassigned_id=*/9);
    EXPECT_EQ(f.ctx.pendingPushes().size(), 2u);
    EXPECT_EQ(f.ctx.pendingPushIds().size(), 1u);
    EXPECT_EQ(f.stats.pushed, 2u);
}

TEST(Context, SaveStateGoesToRecordOnlyDuringInspect)
{
    DetRecordBase r;
    r.id = 1;
    void* slot = nullptr;
    void (*deleter)(void*) = nullptr;

    Fixture f;
    // Inspect: saved into the record slot.
    std::vector<Lockable*> lane;
    f.ctx.beginInspect(&r, &lane, &slot, &deleter);
    f.ctx.saveState<int>(1234);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(*static_cast<int*>(slot), 1234);

    // Commit: savedState recalls it.
    f.begin(UserContext<int>::Mode::DetCommit, &r, &slot, &deleter);
    ASSERT_NE(f.ctx.savedState<int>(), nullptr);
    EXPECT_EQ(*f.ctx.savedState<int>(), 1234);
    deleter(slot);
    slot = nullptr;

    // Check mode: scratch only; savedState stays null.
    f.begin(UserContext<int>::Mode::DetCheck, &r, &slot, &deleter);
    int& scratch = f.ctx.saveState<int>(77);
    EXPECT_EQ(scratch, 77);
    EXPECT_EQ(slot, nullptr);
    EXPECT_EQ(f.ctx.savedState<int>(), nullptr);
}

TEST(Context, CountAtomicAccumulates)
{
    Fixture f;
    f.begin(UserContext<int>::Mode::Serial, nullptr);
    f.ctx.countAtomic();
    f.ctx.countAtomic(5);
    EXPECT_EQ(f.stats.atomicOps, 6u);
}
