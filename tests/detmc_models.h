/**
 * @file
 * detmc model drivers — the bounded models that certify the
 * concurrency kernel's protocols (see DESIGN.md §15 and
 * src/analysis/detmc.h).
 *
 * Four drivers, shared between the gtest suite (detmc_test.cpp) and
 * the CLI (detmc_models_main.cpp):
 *
 *   round-fused     the real RoundEngine::roundLoop() (two rendezvous
 *                   per round, serial steps in barrier completion
 *                   sections) on 2 vthreads — checks §13 quiescence-
 *                   equivalence: every serial section observes the same
 *                   state digest as the serial reference execution,
 *                   under *every* schedule
 *   mark-min        eager CAS-racing markMin against the serial
 *                   claimMarkFold over the same claim set on 3
 *                   vthreads — the §14 min-id-wins theorem: both
 *                   protocols give every contested location to the
 *                   smallest claiming id and flag the same losers
 *   mark-release    the executors' serial fold (foldSliceClaims) in a
 *                   barrier completion section, then on 3 vthreads a
 *                   Mode::DetCheck re-check by every selected record
 *                   followed by each thread's owner release
 *                   (releaseHeldMarks) — the §13 mark lifecycle: no
 *                   selected record ever sees a foreign or null mark,
 *                   and every mark ends clean
 *   worklist        ChunkedWorklist handoff + TerminationDetector on 2
 *                   vthreads — no lost work, no lost wakeup: every
 *                   item is processed exactly once and both threads
 *                   terminate
 *
 * Each driver is deliberately tiny (a handful of operations per
 * virtual thread): the value is exhaustiveness, and exhaustiveness
 * dies exponentially in model size. Seeded protocol bugs
 * ("barrier.early-sense", "lockable.markmin-tear",
 * "lockable.release-unowned", "termination.weak-retire") are armed via Options::seedBug and turn
 * each certification into a detection test.
 */

#ifndef DETGALOIS_TESTS_DETMC_MODELS_H
#define DETGALOIS_TESTS_DETMC_MODELS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/detmc.h"
#include "runtime/conflict.h"
#include "runtime/context.h"
#include "runtime/lockable.h"
#include "runtime/round_engine.h"
#include "runtime/task_store.h"
#include "runtime/worklist.h"
#include "support/termination.h"

namespace detmc_models {

namespace detmc = galois::analysis::detmc;

/** FNV-1a step; digests are tiny and only compared for equality. */
inline std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 1099511628211ULL;
}

// ---------------------------------------------------------------------
// Driver (a): the round protocol.
// ---------------------------------------------------------------------

/**
 * Shared state of the round model: four tasks (ids 1..4) processed in
 * two id-prefix windows of two over three contended Lockables. Task i
 * claims locations (i-1)%3 and i%3, so each round has exactly one
 * contested location; the loser is simply not committed (deferral is
 * an executor policy, not a protocol property — dropping it keeps the
 * model small without weakening the §13 claim).
 *
 * Every serial section (assemble / fold / merge), which roundLoop runs
 * as a barrier completion, appends a digest of the full shared state
 * to `log`. The §13 theorem says those digests are schedule-
 * independent; check() compares them against a serial reference.
 */
struct RoundState
{
    static constexpr unsigned kTasks = 4;
    static constexpr unsigned kWindow = 2;
    static constexpr unsigned kLocs = 3;

    std::unique_ptr<galois::runtime::RoundEngine> eng;
    std::array<galois::runtime::DetRecordBase, kTasks> rec;
    std::array<galois::runtime::Lockable, kLocs> loc;
    std::array<std::vector<unsigned>, 2> lane; // per-thread commit lanes
    std::vector<unsigned> committed;
    std::vector<std::uint64_t> log;
    unsigned round = 0;
    unsigned winBegin = 0, winEnd = 0;

    static const std::array<unsigned, 2>&
    locsOf(unsigned task) // task ids are 1-based
    {
        static const std::array<std::array<unsigned, 2>, kTasks> map = {
            {{0, 1}, {1, 2}, {2, 0}, {0, 1}}};
        return map[task - 1];
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t h = 1469598103934665603ULL;
        h = fnv(h, round);
        for (const auto& l : loc) {
            const auto* o = static_cast<const galois::runtime::MarkOwner*>(
                l.owner(std::memory_order_relaxed));
            h = fnv(h, o ? o->id : 0);
        }
        for (const auto& r : rec)
            h = fnv(h, r.notSelected.load(std::memory_order_relaxed));
        for (unsigned t : committed)
            h = fnv(h, 100 + t);
        return h;
    }
};

/** Serial reference: the §13-predicted digest log and commit order. */
inline void
roundReference(std::vector<std::uint64_t>& log,
               std::vector<unsigned>& committed)
{
    RoundState ref; // hooks are inert off-vthread, so this is plain code
    for (unsigned i = 0; i < RoundState::kTasks; ++i)
        ref.rec[i].id = i + 1;
    auto serialStep = [&](auto&& fn) {
        fn();
        ref.log.push_back(ref.digest());
    };
    bool active = true;
    unsigned nextRound = 0;
    auto assemble = [&] {
        if (nextRound * RoundState::kWindow >= RoundState::kTasks) {
            active = false;
            return;
        }
        ref.round = ++nextRound;
        ref.winBegin = (ref.round - 1) * RoundState::kWindow;
        ref.winEnd = ref.winBegin + RoundState::kWindow;
    };
    serialStep(assemble);
    while (active) {
        // inspect: id-order claims (order-insensitive by §14 anyway)
        for (unsigned i = ref.winBegin; i < ref.winEnd; ++i) {
            const unsigned id = i + 1;
            for (unsigned li : RoundState::locsOf(id)) {
                galois::runtime::MarkOwner* displaced = nullptr;
                if (ref.loc[li].markMin(&ref.rec[i], displaced)) {
                    if (displaced)
                        static_cast<galois::runtime::DetRecordBase*>(
                            displaced)
                            ->notSelected.store(true);
                } else {
                    ref.rec[i].notSelected.store(true);
                }
            }
        }
        serialStep([] {}); // fold step: a no-op in the eager protocol
        for (unsigned i = ref.winBegin; i < ref.winEnd; ++i)
            if (!ref.rec[i].notSelected.load())
                ref.committed.push_back(i + 1);
        serialStep([&] { // merge: clear marks for the next round
            for (auto& l : ref.loc)
                l.forceRelease();
        });
        serialStep(assemble);
    }
    log = ref.log;
    committed = ref.committed;
}

/** Driver (a): the real roundLoop on 2 vthreads. */
inline detmc::ModelSpec
roundModel()
{
    auto st = std::make_shared<RoundState>();
    detmc::ModelSpec spec;
    spec.name = "round-fused";
    spec.nthreads = 2;
    spec.setup = [st] {
        st->eng = std::make_unique<galois::runtime::RoundEngine>(
            2, /*use_cache=*/false);
        for (auto& r : st->rec)
            r.notSelected.store(false);
        for (unsigned i = 0; i < RoundState::kTasks; ++i)
            st->rec[i].id = i + 1;
        for (auto& l : st->loc)
            l.forceRelease();
        for (auto& lane : st->lane)
            lane.clear();
        st->committed.clear();
        st->log.clear();
        st->round = 0;
        st->winBegin = st->winEnd = 0;
    };
    spec.body = [st](unsigned tid) {
        auto assemble = [st] {
            if (st->round * RoundState::kWindow >= RoundState::kTasks) {
                st->log.push_back(st->digest());
                return false;
            }
            ++st->round;
            st->winBegin = (st->round - 1) * RoundState::kWindow;
            st->winEnd = st->winBegin + RoundState::kWindow;
            st->log.push_back(st->digest());
            return true;
        };
        auto phase1 = [st](unsigned t) {
            // id-ordered slice of the window; both threads race their
            // claims through the eager CAS protocol.
            const auto [b, e] = st->eng->slice(
                st->winEnd - st->winBegin, t);
            for (std::size_t i = b; i < e; ++i) {
                const unsigned task = st->winBegin + i; // 0-based
                for (unsigned li : RoundState::locsOf(task + 1)) {
                    galois::runtime::MarkOwner* displaced = nullptr;
                    if (st->loc[li].markMin(&st->rec[task], displaced)) {
                        if (displaced)
                            static_cast<galois::runtime::DetRecordBase*>(
                                displaced)
                                ->notSelected.store(true);
                    } else {
                        st->rec[task].notSelected.store(true);
                    }
                }
            }
        };
        auto mid = [st] { st->log.push_back(st->digest()); };
        auto phase2 = [st](unsigned t) {
            const auto [b, e] = st->eng->slice(
                st->winEnd - st->winBegin, t);
            for (std::size_t i = b; i < e; ++i) {
                const unsigned task = st->winBegin + i;
                if (!st->rec[task].notSelected.load())
                    st->lane[t].push_back(task + 1);
            }
        };
        auto merge = [st] {
            for (auto& lane : st->lane) {
                st->committed.insert(st->committed.end(), lane.begin(),
                                     lane.end());
                lane.clear();
            }
            for (auto& l : st->loc)
                l.forceRelease();
            st->log.push_back(st->digest());
        };
        auto onError = [] {};
        st->eng->roundLoop(tid, assemble, phase1, mid, phase2, merge,
                           onError);
    };
    spec.check = [st] {
        std::vector<std::uint64_t> wantLog;
        std::vector<unsigned> wantCommitted;
        roundReference(wantLog, wantCommitted);
        if (st->committed != wantCommitted)
            throw detmc::CheckFailure(
                "round: committed set diverged from the serial "
                "reference (quiescence-equivalence violated)");
        if (st->log != wantLog)
            throw detmc::CheckFailure(
                "round: serial-section digest log diverged from the "
                "serial reference at rendezvous " +
                std::to_string([&] {
                    std::size_t i = 0;
                    while (i < st->log.size() && i < wantLog.size() &&
                           st->log[i] == wantLog[i])
                        ++i;
                    return i;
                }()));
    };
    return spec;
}

// ---------------------------------------------------------------------
// Driver (b): min-id-wins — eager markMin vs serial claimMarkFold.
// ---------------------------------------------------------------------

/**
 * Three claimants (ids 1..3) race markMin over two contended locations
 * (everyone claims both, in opposite orders, so every interleaving of
 * the CAS protocol is exercised). The same claim set is folded
 * serially — inside a barrier completion section, exactly where the
 * batched protocol runs it — over a second pair of locations with
 * claimMarkFold. §14 says the outcomes coincide: every location to the
 * minimum id, the same loser flags, under every schedule.
 */
struct MarkState
{
    static constexpr unsigned kThreads = 3;
    static constexpr unsigned kLocs = 2;

    std::array<galois::runtime::DetRecordBase, kThreads> eager;
    std::array<galois::runtime::DetRecordBase, kThreads> folded;
    std::array<galois::runtime::Lockable, kLocs> eagerLoc;
    std::array<galois::runtime::Lockable, kLocs> foldLoc;
    /** Per-thread collection lanes (batched-protocol inspect). */
    std::array<std::vector<unsigned>, kThreads> claims;
    std::unique_ptr<galois::support::Barrier> bar;
};

inline detmc::ModelSpec
markModel()
{
    auto st = std::make_shared<MarkState>();
    detmc::ModelSpec spec;
    spec.name = "mark-min";
    spec.nthreads = MarkState::kThreads;
    spec.setup = [st] {
        for (unsigned t = 0; t < MarkState::kThreads; ++t) {
            st->eager[t].id = t + 1;
            st->eager[t].notSelected.store(false);
            st->folded[t].id = t + 1;
            st->folded[t].notSelected.store(false);
            st->claims[t].clear();
        }
        for (auto& l : st->eagerLoc)
            l.forceRelease();
        for (auto& l : st->foldLoc)
            l.forceRelease();
        st->bar = std::make_unique<galois::support::Barrier>(
            MarkState::kThreads);
    };
    spec.body = [st](unsigned tid) {
        // Each thread claims both locations twice — odd threads in
        // reverse order so claim interleavings cross, and the repeat
        // exercises the already-mine / already-lost fast paths of the
        // CAS loop under contention.
        std::array<unsigned, 2 * MarkState::kLocs> order = {0, 1, 0, 1};
        if (tid % 2)
            order = {1, 0, 1, 0};
        for (unsigned li : order) {
            galois::runtime::MarkOwner* displaced = nullptr;
            if (st->eagerLoc[li].markMin(&st->eager[tid], displaced)) {
                if (displaced)
                    static_cast<galois::runtime::DetRecordBase*>(
                        displaced)
                        ->notSelected.store(true);
            } else {
                st->eager[tid].notSelected.store(true);
            }
            st->claims[tid].push_back(li);
        }
        // Batched protocol: the last thread into the barrier folds the
        // collected claims serially, in ascending id order.
        st->bar->wait([st] {
            for (unsigned t = 0; t < MarkState::kThreads; ++t)
                for (unsigned li : st->claims[t])
                    galois::runtime::claimMarkFold(st->foldLoc[li],
                                                   &st->folded[t]);
        });
    };
    spec.check = [st] {
        for (unsigned li = 0; li < MarkState::kLocs; ++li) {
            const auto* eagerOwner = st->eagerLoc[li].owner();
            const auto* foldOwner = st->foldLoc[li].owner();
            if (!eagerOwner || eagerOwner->id != 1)
                throw detmc::CheckFailure(
                    "mark-min: eager owner of location " +
                    std::to_string(li) + " is id " +
                    std::to_string(eagerOwner ? eagerOwner->id : 0) +
                    ", not the minimum claiming id 1");
            if (!foldOwner || foldOwner->id != eagerOwner->id)
                throw detmc::CheckFailure(
                    "mark-min: serial fold owner of location " +
                    std::to_string(li) +
                    " diverged from the eager protocol");
        }
        for (unsigned t = 0; t < MarkState::kThreads; ++t)
            if (st->eager[t].notSelected.load() !=
                st->folded[t].notSelected.load())
                throw detmc::CheckFailure(
                    "mark-min: loser flag of id " +
                    std::to_string(t + 1) +
                    " differs between eager and folded protocols");
    };
    return spec;
}

// ---------------------------------------------------------------------
// Driver (c): the mark lifecycle — serial fold, parallel owner release.
// ---------------------------------------------------------------------

/**
 * Three records (ids 1..3), one per vthread, over three locations, run
 * through the executors' own fold and release (foldSliceClaims,
 * releaseHeldMarks) on a three-record store. Task 1 claims {L0, L0},
 * task 2 claims {L1}, task 3 claims L2 thirty-two times and then
 * {L0, L1}: the fold — in a barrier completion section, exactly where
 * the executors run it — gives L0 to 1, L1 to 2 and L2 to 3 and flags
 * task 3, so tasks 1 and 2 are selected while the loser holds L2. The
 * duplicate claims push task 3's claims of the winners' locations past
 * the heldClaims mask, where the release walks entries under the owner
 * check alone. After the barrier each vthread, like an executor thread
 * in select, re-checks its marks in Mode::DetCheck if selected (the
 * real UserContext acquire), then releases its record's marks. check(): the
 * selection is {1, 2}, no selected record saw a foreign or null mark,
 * and every mark is null and every heldClaims mask clear at the end.
 * Seeded tear "lockable.release-unowned" drops the owner check, so the
 * loser can clear a winner's mark before the winner's check reads it.
 */
struct ReleaseState
{
    static constexpr unsigned kThreads = 3;
    static constexpr unsigned kLocs = 3;

    /** The record/span interface the fold and release are written to. */
    struct Store
    {
        ReleaseState* st;
        galois::runtime::DetRecordBase* record(std::uint32_t slot)
        {
            return &st->rec[slot];
        }
        galois::runtime::AcquireSpan span(std::uint32_t slot) const
        {
            return {0, static_cast<std::uint32_t>(st->lane[slot].size())};
        }
    };

    std::array<galois::runtime::DetRecordBase, kThreads> rec;
    std::array<galois::runtime::Lockable, kLocs> loc;
    /** Per-vthread collection lane, holding its one task's claims. */
    std::array<std::vector<galois::runtime::Lockable*>, kThreads> lane;
    std::vector<std::uint32_t> slots{0, 1, 2};
    std::unique_ptr<galois::support::Barrier> bar;
    /** Per-vthread: a selected record's check lost a mark. */
    std::array<bool, kThreads> checkFailed{};
};

inline detmc::ModelSpec
releaseModel()
{
    auto st = std::make_shared<ReleaseState>();
    detmc::ModelSpec spec;
    spec.name = "mark-release";
    spec.nthreads = ReleaseState::kThreads;
    spec.setup = [st] {
        for (unsigned t = 0; t < ReleaseState::kThreads; ++t) {
            st->rec[t].id = t + 1;
            st->rec[t].notSelected.store(false);
            st->rec[t].heldClaims = 0;
            st->checkFailed[t] = false;
        }
        for (auto& l : st->loc)
            l.forceRelease();
        auto* l = st->loc.data();
        st->lane[0] = {&l[0], &l[0]};
        st->lane[1] = {&l[1]};
        st->lane[2].assign(galois::runtime::kHeldClaimBits, &l[2]);
        st->lane[2].push_back(&l[0]);
        st->lane[2].push_back(&l[1]);
        st->bar = std::make_unique<galois::support::Barrier>(
            ReleaseState::kThreads);
    };
    spec.body = [st](unsigned tid) {
        using galois::runtime::UserContext;
        ReleaseState::Store store{st.get()};
        // Fold: the last thread into the barrier claims every collected
        // location, slices in thread order (ascending ids).
        st->bar->wait([st, &store] {
            for (unsigned t = 0; t < ReleaseState::kThreads; ++t)
                galois::runtime::foldSliceClaims(store, st->slots, t, t + 1,
                                                 st->lane[t].data());
        });
        // Select: a selected record re-checks its marks.
        galois::runtime::DetRecordBase& me = st->rec[tid];
        if (!me.notSelected.load(std::memory_order_relaxed)) {
            galois::runtime::ThreadStats stats;
            UserContext<int> ctx;
            ctx.bindStats(&stats);
            ctx.beginTask(UserContext<int>::Mode::DetCheck, &me, nullptr);
            try {
                for (galois::runtime::Lockable* l : st->lane[tid])
                    ctx.acquire(*l);
            } catch (const galois::runtime::ConflictSignal&) {
                st->checkFailed[tid] = true;
            }
        }
        // Then the owner release of the thread's record.
        galois::runtime::releaseHeldMarks(
            &me, st->lane[tid].data(),
            static_cast<std::uint32_t>(st->lane[tid].size()));
    };
    spec.check = [st] {
        for (unsigned t = 0; t < ReleaseState::kThreads; ++t) {
            const bool selected = !st->rec[t].notSelected.load();
            const bool wantSelected = t + 1 != 3; // only id 3 loses
            if (selected != wantSelected)
                throw detmc::CheckFailure(
                    "mark-release: fold selected the wrong set (id " +
                    std::to_string(t + 1) + ")");
            if (st->checkFailed[t])
                throw detmc::CheckFailure(
                    "mark-release: selected id " + std::to_string(t + 1) +
                    " saw a foreign or null mark in its select check");
            if (st->rec[t].heldClaims != 0)
                throw detmc::CheckFailure(
                    "mark-release: id " + std::to_string(t + 1) +
                    " kept a heldClaims mask after its release");
        }
        for (unsigned li = 0; li < ReleaseState::kLocs; ++li)
            if (const auto* o = st->loc[li].owner())
                throw detmc::CheckFailure(
                    "mark-release: location " + std::to_string(li) +
                    " still held by id " + std::to_string(o->id) +
                    " after every owner released");
    };
    return spec;
}

// ---------------------------------------------------------------------
// Driver (d): worklist handoff + termination detection.
// ---------------------------------------------------------------------

/**
 * Two threads drain a ChunkedWorklist seeded with two items in thread
 * 0's lane (chunk size 1, so the second item is published to the
 * shared deque and reachable by stealing). Item 2 spawns one child, so
 * the pending count crosses zero only at the true end. An idle thread
 * parks on yieldProgress() until someone writes; a schedule where all
 * threads park with work pending is a lost wakeup and is reported.
 * check(): every item processed exactly once, detector quiescent.
 */
struct WorklistState
{
    static constexpr unsigned kThreads = 2;

    std::unique_ptr<galois::runtime::ChunkedWorklist<int>> wl;
    galois::support::TerminationDetector term;
    std::array<std::vector<int>, kThreads> got;
};

inline detmc::ModelSpec
worklistModel()
{
    auto st = std::make_shared<WorklistState>();
    detmc::ModelSpec spec;
    spec.name = "worklist";
    spec.nthreads = WorklistState::kThreads;
    spec.setup = [st] {
        galois::runtime::WorklistPolicy pol;
        pol.fifo = true;
        pol.chunkSize = 1;
        st->wl =
            std::make_unique<galois::runtime::ChunkedWorklist<int>>(pol);
        for (auto& g : st->got)
            g.clear();
        // Controller thread is lane 0, matching vthread 0.
        st->wl->push(1);
        st->wl->push(2);
        st->term.reset(2);
    };
    spec.body = [st](unsigned tid) {
        for (;;) {
            if (auto item = st->wl->pop()) {
                st->got[tid].push_back(*item);
                if (*item == 2) { // item 2 spawns one child
                    st->term.add();
                    st->wl->push(3);
                }
                st->term.retire();
                continue;
            }
            if (st->term.quiescent())
                return;
            // Dry but not done: park until somebody makes progress.
            detmc::yieldProgress("worklist.idle");
        }
    };
    spec.check = [st] {
        if (!st->term.quiescent())
            throw detmc::CheckFailure(
                "worklist: threads terminated with pending work (" +
                std::to_string(st->term.pending()) + ")");
        std::vector<int> all;
        for (const auto& g : st->got)
            all.insert(all.end(), g.begin(), g.end());
        std::sort(all.begin(), all.end());
        const std::vector<int> want = {1, 2, 3};
        if (all != want) {
            std::string s = "worklist: processed set {";
            for (int v : all)
                s += std::to_string(v) + ",";
            s += "} != {1,2,3} (lost or duplicated work)";
            throw detmc::CheckFailure(s);
        }
    };
    return spec;
}

// ---------------------------------------------------------------------
// Registry for the CLI and the test suite.
// ---------------------------------------------------------------------

struct NamedModel
{
    const char* name;
    detmc::ModelSpec (*make)();
    /** Seeded bug this model detects (nullptr: none wired). */
    const char* bug;
};

inline const std::array<NamedModel, 4>&
allModels()
{
    static const std::array<NamedModel, 4> models = {{
        {"round-fused", &roundModel, "barrier.early-sense"},
        {"mark-min", &markModel, "lockable.markmin-tear"},
        {"mark-release", &releaseModel, "lockable.release-unowned"},
        {"worklist", &worklistModel, "termination.weak-retire"},
    }};
    return models;
}

} // namespace detmc_models

#endif // DETGALOIS_TESTS_DETMC_MODELS_H
