/**
 * @file
 * Unit tests for the SoA task store (runtime/task_store.h): lane
 * invariants (slot == id - 1, lane initialization, flag/failure lanes),
 * generation-scoped arena behavior (rewind, slab reuse, allocation-
 * failure injection at lane growth), payload/continuation lifetime, and
 * the prefix-sum selection compactSelect — whose per-thread results over
 * a blockRange partition must concatenate to exactly the single-threaded
 * result at every thread count — and the owner-thread mark release
 * (releaseHeldMarks), which must clear exactly its own slice's marks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <random>
#include <vector>

#include "runtime/conflict.h"
#include "runtime/round_engine.h" // blockRange
#include "runtime/task_store.h"
#include "support/failpoint.h"

using namespace galois::runtime;
using galois::support::FailPlan;

namespace {

/** Payload with instance accounting, for lifetime tests. */
struct Tracked
{
    static int live;
    int v = 0;
    explicit Tracked(int x = 0) : v(x) { ++live; }
    Tracked(Tracked&& o) noexcept : v(o.v) { ++live; }
    Tracked(const Tracked&) = delete;
    ~Tracked() { --live; }
};
int Tracked::live = 0;

/** Fill a store with n tasks carrying ids 1..n. */
void
build(TaskStore<int>& s, std::size_t n)
{
    s.beginBuild(n);
    for (std::size_t i = 0; i < n; ++i)
        s.emplace(static_cast<int>(i * 10), i + 1);
}

} // namespace

// ---------------------------------------------------------------------
// Lane invariants
// ---------------------------------------------------------------------

TEST(TaskStore, SlotIsIdMinusOneAndLanesInitialize)
{
    TaskStore<int> s;
    build(s, 100);
    ASSERT_EQ(s.size(), 100u);
    for (std::uint32_t slot = 0; slot < 100; ++slot) {
        EXPECT_EQ(s.id(slot), slot + 1u);
        EXPECT_EQ(s.record(slot)->id, slot + 1u);
        EXPECT_EQ(s.item(slot), static_cast<int>(slot) * 10);
        EXPECT_EQ(s.span(slot).off, 0u);
        EXPECT_EQ(s.span(slot).len, 0u);
        EXPECT_EQ(s.local(slot), nullptr);
        EXPECT_FALSE(s.taskFailed(slot));
        EXPECT_FALSE(s.notSelected(slot));
    }
}

TEST(TaskStore, FlagAndFailureLanesAreIndependentAndRetryResets)
{
    TaskStore<int> s;
    build(s, 8);

    s.record(3)->notSelected.store(true, std::memory_order_relaxed);
    s.setTaskFailed(5);
    s.span(3) = AcquireSpan{7, 2};

    EXPECT_TRUE(s.notSelected(3));
    EXPECT_FALSE(s.taskFailed(3));
    EXPECT_TRUE(s.taskFailed(5));
    EXPECT_FALSE(s.notSelected(5));

    // Retry reset clears the round state (span, flag) but not the
    // failure lane — a task that raised a real error stays failed.
    s.clearForRetry(3);
    s.clearForRetry(5);
    EXPECT_FALSE(s.notSelected(3));
    EXPECT_EQ(s.span(3).len, 0u);
    EXPECT_TRUE(s.taskFailed(5));
}

// ---------------------------------------------------------------------
// Lifetime: payloads and continuation state
// ---------------------------------------------------------------------

TEST(TaskStore, ResetDestroysPayloadsAndLeftoverLocals)
{
    TaskStore<Tracked> s;
    s.beginBuild(10);
    for (std::size_t i = 0; i < 10; ++i)
        s.emplace(Tracked(static_cast<int>(i)), i + 1);
    EXPECT_EQ(Tracked::live, 10);

    // Simulate a continuation left behind by a fault: reset() must run
    // its deleter exactly once.
    s.local(4) = new Tracked(99);
    s.localDeleter(4) = [](void* p) { delete static_cast<Tracked*>(p); };
    EXPECT_EQ(Tracked::live, 11);

    s.reset();
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_EQ(s.size(), 0u);
}

TEST(TaskStore, DestroyLocalIsIdempotent)
{
    TaskStore<int> s;
    build(s, 2);
    Tracked::live = 0;
    s.local(0) = new Tracked(1);
    s.localDeleter(0) = [](void* p) { delete static_cast<Tracked*>(p); };
    s.destroyLocal(0);
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_EQ(s.local(0), nullptr);
    s.destroyLocal(0); // no local anymore: no-op
    EXPECT_EQ(Tracked::live, 0);
}

// ---------------------------------------------------------------------
// Arena behavior: rewind, slab reuse, growth failure
// ---------------------------------------------------------------------

TEST(TaskStore, RebuildReusesArenaSlabs)
{
    TaskStore<int> s;
    build(s, 5000);
    const std::size_t chunks = s.arena().chunkCount();
    const std::size_t reserved = s.arena().bytesReserved();
    ASSERT_GT(chunks, 0u);

    // Same-size (and smaller) generations must be carved entirely from
    // the retained slabs: no new chunk, no new reservation.
    for (std::size_t n : {5000u, 1234u, 5000u}) {
        build(s, n);
        EXPECT_EQ(s.size(), n);
        EXPECT_EQ(s.arena().chunkCount(), chunks) << n;
        EXPECT_EQ(s.arena().bytesReserved(), reserved) << n;
    }
}

TEST(TaskStore, GrowthFailpointThrowsAndStoreRecovers)
{
    using galois::support::failpoints::Scoped;
    TaskStore<int> s;
    build(s, 16); // allocates the first chunk(s)

    {
        // Inject bad_alloc at the next chunk growth (the failpoint key
        // is the chunk ordinal): a generation too large for the
        // retained slabs must fail cleanly mid-build.
        Scoped fp("arena.chunk",
                  FailPlan::badAllocAt(s.arena().chunkCount()));
        EXPECT_THROW(s.beginBuild(1u << 20), std::bad_alloc);
    }
    // The failed build left no tasks behind; disarmed, the store grows
    // and builds normally again.
    EXPECT_EQ(s.size(), 0u);
    build(s, 1000);
    EXPECT_EQ(s.size(), 1000u);
    EXPECT_EQ(s.id(999), 1000u);
}

// ---------------------------------------------------------------------
// compactSelect: prefix-sum selection equivalence
// ---------------------------------------------------------------------

TEST(TaskStore, CompactSelectMatchesPerTaskPredicateAcrossPartitions)
{
    // Randomized rounds: random flag/failure lanes over a random
    // (ascending, non-contiguous) slot list — the shape of a real round,
    // where cur is carry slots plus a queue prefix. The per-thread
    // results at 1/2/4/8 partitions, concatenated in thread order, must
    // equal the single-threaded result exactly.
    std::mt19937 rng(20260809);
    for (int round = 0; round < 25; ++round) {
        TaskStore<int> s;
        const std::size_t n = 1 + rng() % 600;
        build(s, n);

        std::vector<std::uint32_t> slots;
        for (std::uint32_t slot = 0; slot < n; ++slot) {
            if (rng() % 4 != 0) // ~75% of the generation in this round
                slots.push_back(slot);
            if (rng() % 8 == 0)
                s.record(slot)->notSelected.store(
                    true, std::memory_order_relaxed);
            if (rng() % 16 == 0)
                s.setTaskFailed(slot);
        }

        // Reference: the per-task predicate, applied in list order.
        std::vector<std::uint32_t> ref_sel, ref_def;
        for (const std::uint32_t slot : slots) {
            if (!s.taskFailed(slot) && !s.notSelected(slot))
                ref_sel.push_back(slot);
            else
                ref_def.push_back(slot);
        }

        std::vector<std::uint32_t> one_sel, one_def;
        compactSelect(s, slots, 0, slots.size(), one_sel, one_def);
        EXPECT_EQ(one_sel, ref_sel) << "round " << round;
        EXPECT_EQ(one_def, ref_def) << "round " << round;

        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            std::vector<std::uint32_t> sel, def;
            for (unsigned tid = 0; tid < threads; ++tid) {
                auto [begin, end] =
                    blockRange(slots.size(), tid, threads);
                compactSelect(s, slots, begin, end, sel, def);
            }
            EXPECT_EQ(sel, ref_sel) << "round " << round << " threads "
                                    << threads;
            EXPECT_EQ(def, ref_def) << "round " << round << " threads "
                                    << threads;
        }
    }
}

TEST(TaskStore, OwnerReleaseAfterFoldClearsEveryMarkSliceBySlice)
{
    // The batched mark lifecycle over real lanes: the serial fold
    // installs marks in id order, then each thread's releaseHeldMarks
    // walks only its own slice. Releasing one slice must never touch a
    // mark held by another slice's record, and after every slice has
    // released, every mark is clean — whatever order the slices run in.
    std::mt19937 rng(20261017);
    for (int round = 0; round < 25; ++round) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            TaskStore<int> s;
            const std::size_t n = 1 + rng() % 200;
            build(s, n);
            std::vector<Lockable> locs(1 + rng() % 64);

            std::vector<std::uint32_t> slots;
            for (std::uint32_t slot = 0; slot < n; ++slot)
                if (rng() % 4 != 0)
                    slots.push_back(slot);

            // Inspect: each task collects a few random claims
            // (duplicates included) into its thread's lane; some spans
            // run past the kHeldClaimBits mask.
            std::vector<std::vector<Lockable*>> lanes(threads);
            for (unsigned tid = 0; tid < threads; ++tid) {
                auto [begin, end] = blockRange(slots.size(), tid, threads);
                for (std::size_t i = begin; i < end; ++i) {
                    const auto off =
                        static_cast<std::uint32_t>(lanes[tid].size());
                    const unsigned k = rng() % 8 == 0
                                           ? kHeldClaimBits + rng() % 9
                                           : rng() % 5;
                    for (unsigned j = 0; j < k; ++j)
                        lanes[tid].push_back(&locs[rng() % locs.size()]);
                    s.span(slots[i]) = AcquireSpan{
                        off,
                        static_cast<std::uint32_t>(lanes[tid].size()) -
                            off};
                }
            }

            // Serial fold: slices in thread order, i.e. ascending ids.
            for (unsigned tid = 0; tid < threads; ++tid) {
                auto [begin, end] = blockRange(slots.size(), tid, threads);
                foldSliceClaims(s, slots, begin, end, lanes[tid].data());
            }

            // Owner release, slices in reverse thread order.
            for (unsigned r = threads; r-- > 0;) {
                std::vector<MarkOwner*> before(locs.size());
                for (std::size_t li = 0; li < locs.size(); ++li)
                    before[li] = locs[li].owner();
                auto [begin, end] = blockRange(slots.size(), r, threads);
                for (std::size_t i = begin; i < end; ++i) {
                    const AcquireSpan sp = s.span(slots[i]);
                    releaseHeldMarks(s.record(slots[i]),
                                     lanes[r].data() + sp.off, sp.len);
                }
                for (std::size_t li = 0; li < locs.size(); ++li) {
                    MarkOwner* o = before[li];
                    if (o == nullptr)
                        continue;
                    const auto slot = static_cast<std::uint32_t>(o->id - 1);
                    const auto pos = static_cast<std::size_t>(
                        std::lower_bound(slots.begin(), slots.end(), slot) -
                        slots.begin());
                    const bool mine = pos >= begin && pos < end;
                    EXPECT_EQ(locs[li].owner(), mine ? nullptr : o)
                        << "round " << round << " threads " << threads
                        << " slice " << r << " location " << li;
                }
            }
            for (const Lockable& l : locs)
                EXPECT_EQ(l.owner(), nullptr);
            for (const std::uint32_t slot : slots)
                EXPECT_EQ(s.record(slot)->heldClaims, 0u);
        }
    }
}
