/**
 * @file
 * Edge-case tests for the Exec::DetRes backend: the deterministic
 * reservation executor under livelock, injected faults and allocation
 * failure.
 *
 * DetRes inherits the paper's "a fault is just another input" property
 * from the shared id-order discipline: the reservation prefix, the
 * winner of every contested mark and the failpoint keys (task id,
 * generation, round, arena chunk ordinal) are all pure functions of the
 * input, so a faulted run must produce the same error string, the same
 * partial final state and the same round-by-round trace on 1, 2, 4 and
 * 8 threads. The livelock watchdog is a schedule fact too: a
 * non-cautious operator that commits nothing must trip it after exactly
 * watchdogRounds rounds with an identical diagnostic at every width.
 *
 * Degraded-pool behavior (thread creation failing at process start) is
 * covered separately in degradation_test.cpp, which runs in its own
 * binary because the pool is a process-wide singleton.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "galois/galois.h"

using galois::Config;
using galois::Exec;
using galois::FailPlan;
using galois::Lockable;
namespace failpoints = galois::failpoints;

namespace {

class DetResEdge : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::clearAll(); }
    void TearDown() override { failpoints::clearAll(); }
};

/** Conflict-heavy order-sensitive workload (same shape as the one in
 *  resilience_test.cpp): task i updates cells i%N and (i*7+3)%N with
 *  non-commutative arithmetic, so the final state encodes the exact
 *  committed set and order. */
struct CellWorkload
{
    explicit CellWorkload(std::size_t cells, std::uint32_t tasks,
                          std::uint32_t spawn_limit = 0)
        : values(cells, 1), locks(cells), numTasks(tasks),
          spawnLimit(spawn_limit)
    {}

    std::vector<std::int64_t> values;
    std::vector<Lockable> locks;
    std::uint32_t numTasks;
    std::uint32_t spawnLimit;

    std::vector<std::uint32_t>
    initialTasks() const
    {
        std::vector<std::uint32_t> init(numTasks);
        for (std::uint32_t i = 0; i < numTasks; ++i)
            init[i] = i;
        return init;
    }

    auto
    op()
    {
        return [this](std::uint32_t& i,
                      galois::Context<std::uint32_t>& ctx) {
            const std::size_t a = i % values.size();
            const std::size_t b = (std::size_t(i) * 7 + 3) % values.size();
            ctx.acquire(locks[a]);
            ctx.acquire(locks[b]);
            if (ctx.tryCautiousPoint())
                return;
            values[a] = values[a] * 3 + i + 1;
            values[b] = values[b] * 5 + 2 * (i + 1);
            if (i < spawnLimit)
                ctx.push(i + numTasks);
        };
    }

    std::uint64_t
    hash() const
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (std::int64_t v : values) {
            h ^= static_cast<std::uint64_t>(v);
            h *= 1099511628211ULL;
        }
        return h;
    }

    bool
    allLocksFree() const
    {
        for (const Lockable& l : locks)
            if (l.owner() != nullptr)
                return false;
        return true;
    }
};

/** Outcome of a faulted DetRes run: everything that must be
 *  thread-count invariant. */
struct FaultOutcome
{
    std::string error;
    std::uint64_t stateHash = 0;
    std::vector<std::array<std::uint64_t, 3>> trace;

    bool
    operator==(const FaultOutcome& o) const
    {
        return error == o.error && stateHash == o.stateHash &&
               trace == o.trace;
    }
};

/** Run the cell workload under Exec::DetRes with the given fault plan
 *  armed, expecting the run to fail; returns the invariant outcome. */
FaultOutcome
runDetResFault(const char* site, const FailPlan& plan, unsigned threads)
{
    failpoints::clearAll();
    failpoints::set(site, plan);
    CellWorkload w(64, 3000, 500);
    Config cfg;
    cfg.exec = Exec::DetRes;
    cfg.threads = threads;
    FaultOutcome out;
    cfg.det.roundHook = [&](std::uint64_t prefix, std::uint64_t att,
                            std::uint64_t com) {
        out.trace.push_back({prefix, att, com});
    };
    bool threw = false;
    try {
        galois::forEach(w.initialTasks(), w.op(), cfg);
    } catch (const std::exception& e) {
        threw = true;
        out.error = e.what();
    }
    EXPECT_TRUE(threw) << site << " plan did not fire";
    EXPECT_TRUE(w.allLocksFree())
        << site << ": marks leaked after faulted run";
    out.stateHash = w.hash();
    failpoints::clearAll();
    return out;
}

/** Asserts the outcome of (site, plan) is identical on 1/2/4/8 threads
 *  and returns the reference outcome. */
FaultOutcome
assertFaultPortable(const char* site, const FailPlan& plan)
{
    const FaultOutcome ref = runDetResFault(site, plan, 1);
    EXPECT_FALSE(ref.error.empty());
    for (unsigned threads : {2u, 4u, 8u}) {
        const FaultOutcome got = runDetResFault(site, plan, threads);
        EXPECT_EQ(got.error, ref.error) << site << " @ " << threads;
        EXPECT_EQ(got.stateHash, ref.stateHash)
            << site << " @ " << threads;
        EXPECT_EQ(got.trace, ref.trace) << site << " @ " << threads;
    }
    return ref;
}

// ---------------------------------------------------------------------
// Livelock watchdog
// ---------------------------------------------------------------------

TEST_F(DetResEdge, WatchdogFiresDeterministically)
{
    // Non-cautious operator: the post-cautious acquire conflicts with
    // another task's mark in every round, so nothing ever commits. The
    // watchdog must trip after exactly watchdogRounds rounds with an
    // identical diagnostic at every thread count — the trip round and
    // the reported stuck ids are schedule facts.
    constexpr std::uint64_t kWatchdog = 5;
    auto run = [&](unsigned threads) {
        std::vector<Lockable> locks(4);
        std::vector<std::uint32_t> init(24);
        for (std::uint32_t i = 0; i < 24; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = Exec::DetRes;
        cfg.threads = threads;
        // Baseline selection (no continuation): the post-cautious
        // acquire must be re-checked against the round's marks, which
        // is what makes the operator's non-cautiousness observable.
        cfg.det.continuation = false;
        cfg.det.watchdogRounds = kWatchdog;
        std::uint64_t rounds = 0, committed = 0;
        cfg.det.roundHook = [&](std::uint64_t, std::uint64_t,
                                std::uint64_t com) {
            ++rounds;
            committed += com;
        };
        std::string error;
        try {
            galois::forEach(
                init,
                [&](std::uint32_t& i,
                    galois::Context<std::uint32_t>& ctx) {
                    ctx.acquire(locks[i % 4]);
                    if (ctx.tryCautiousPoint())
                        return;
                    ctx.acquire(locks[(i + 1) % 4]); // NOT cautious
                },
                cfg);
        } catch (const galois::LivelockError& e) {
            error = e.what();
        }
        EXPECT_EQ(committed, 0u) << threads << " threads";
        EXPECT_EQ(rounds, kWatchdog) << threads << " threads";
        return error;
    };
    const std::string ref = run(1);
    ASSERT_FALSE(ref.empty()) << "watchdog did not fire";
    EXPECT_NE(ref.find("progress watchdog"), std::string::npos) << ref;
    EXPECT_NE(ref.find("not cautious"), std::string::npos) << ref;
    // The reservation policy's labels: the backend and its prefix.
    EXPECT_NE(ref.find("DetRes"), std::string::npos) << ref;
    EXPECT_NE(ref.find(", prefix "), std::string::npos) << ref;
    EXPECT_EQ(ref.find("window"), std::string::npos) << ref;
    for (unsigned threads : {2u, 4u, 8u})
        EXPECT_EQ(run(threads), ref) << threads << " threads";
}

// ---------------------------------------------------------------------
// Injected faults: a fault is just another input
// ---------------------------------------------------------------------

TEST_F(DetResEdge, ArenaChunkFaultDuringReserveIsPortable)
{
    // The TaskStore carves its generation lanes from an Arena; chunk
    // growth passes the "arena.chunk" failpoint keyed by the chunk
    // ordinal. Injecting bad_alloc at the first growth makes lane
    // setup fail before any task runs — the error, the untouched
    // state and the (empty) trace must match on every thread count.
    const auto ref =
        assertFaultPortable("arena.chunk", FailPlan::badAllocAt(0));
    EXPECT_TRUE(ref.trace.empty())
        << "allocation fault fired after rounds started";
}

TEST_F(DetResEdge, ReserveFaultIsPortable)
{
    // detres.reserve is keyed by the reserving task's id.
    assertFaultPortable("detres.reserve", FailPlan::throwAt(37));
}

TEST_F(DetResEdge, CommitFaultIsPortable)
{
    // detres.commit is keyed by the committing task's id.
    assertFaultPortable("detres.commit", FailPlan::throwAt(52));
}

TEST_F(DetResEdge, IdSortFaultIsPortable)
{
    // detres.idsort is keyed by the generation ordinal; the spawning
    // workload reaches a second generation.
    assertFaultPortable("detres.idsort", FailPlan::throwAt(2));
}

TEST_F(DetResEdge, MergeFaultIsPortable)
{
    // detres.merge is keyed by the round ordinal.
    assertFaultPortable("detres.merge", FailPlan::throwAt(3));
}

TEST_F(DetResEdge, FaultedRunsAreReproducible)
{
    // Same plan, same width, twice: byte-identical outcome (no hidden
    // run-to-run state in the reservation policy or the failpoint
    // registry).
    const auto a =
        runDetResFault("detres.commit", FailPlan::throwAt(52), 4);
    const auto b =
        runDetResFault("detres.commit", FailPlan::throwAt(52), 4);
    EXPECT_EQ(a, b);
}

} // namespace
