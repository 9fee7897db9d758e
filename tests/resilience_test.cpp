/**
 * @file
 * Resilience tests: determinism under faults.
 *
 * The headline property extends the paper's portability claim to failing
 * runs: under Exec::Det, a deterministic fault plan (support/failpoint.h)
 * produces the *same* error, the *same* final state, and the *same*
 * round-by-round schedule trace on 1, 2, 4 and 8 threads. A fault is
 * just another input.
 *
 * For the speculative executor the guarantee is necessarily weaker —
 * scheduling is non-deterministic by design — but still strong: a
 * failing task is captured, its marks are released, and the remaining
 * work drains completely before the first error is rethrown. A fault
 * behaves exactly like removing the failing task from the task set, so
 * for workloads whose result does not depend on the serialization order
 * the faulted final state is identical across thread counts too.
 *
 * Both deterministic backends (Exec::Det, Exec::DetRes) must also leave
 * every mark free at every round boundary and after every faulted run.
 *
 * Also covered here: the progress watchdog (livelock -> fail-fast
 * diagnostic), DetOptions validation, and the backoff stats plumbing.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "galois/galois.h"

using galois::Config;
using galois::Exec;
using galois::FailPlan;
using galois::FailpointError;
using galois::Lockable;
using galois::LivelockError;
namespace failpoints = galois::failpoints;

namespace {

class ResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::clearAll(); }
    void TearDown() override { failpoints::clearAll(); }
};

/**
 * Conflict-heavy order-sensitive workload (same shape as the one in
 * runtime_test.cpp): task i updates cells i%N and (i*7+3)%N with
 * non-commutative arithmetic, so the final state encodes the exact
 * committed set and order — the sharpest possible probe for
 * determinism under faults.
 */
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
        return [this](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
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

/** Every task touches only its own cell: no conflicts, commutative. */
struct DisjointWorkload
{
    explicit DisjointWorkload(std::uint32_t tasks)
        : values(tasks, 0), locks(tasks), numTasks(tasks)
    {}

    std::vector<std::int64_t> values;
    std::vector<Lockable> locks;
    std::uint32_t numTasks;

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
        return [this](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
            ctx.acquire(locks[i]);
            if (ctx.tryCautiousPoint())
                return;
            values[i] = static_cast<std::int64_t>(i) + 1;
        };
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

/** Outcome of a faulted deterministic run: everything that must be
 *  thread-count invariant. */
struct DetFaultOutcome
{
    std::string error;
    std::uint64_t stateHash = 0;
    std::vector<std::array<std::uint64_t, 3>> trace;

    bool
    operator==(const DetFaultOutcome& o) const
    {
        return error == o.error && stateHash == o.stateHash &&
               trace == o.trace;
    }
};

/** Run the cell workload under Exec::Det with the given fault plan
 *  armed, expecting the run to fail; returns the invariant outcome. */
DetFaultOutcome
runDetFault(const char* site, const FailPlan& plan, unsigned threads,
            bool continuation)
{
    failpoints::clearAll();
    failpoints::set(site, plan);
    CellWorkload w(64, 3000, 500);
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = threads;
    cfg.det.continuation = continuation;
    DetFaultOutcome out;
    cfg.det.roundHook = [&](std::uint64_t win, std::uint64_t att,
                            std::uint64_t com) {
        out.trace.push_back({win, att, com});
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

// ---------------------------------------------------------------------
// Deterministic executor: a fault is just another input
// ---------------------------------------------------------------------

class DetFaultPortability : public ::testing::TestWithParam<bool>
{
  protected:
    void SetUp() override { failpoints::clearAll(); }
    void TearDown() override { failpoints::clearAll(); }

    /** Asserts the outcome of (site, plan) is identical on 1/2/4/8
     *  threads and returns the reference outcome. */
    DetFaultOutcome
    assertPortable(const char* site, const FailPlan& plan)
    {
        const bool continuation = GetParam();
        const DetFaultOutcome ref =
            runDetFault(site, plan, 1, continuation);
        EXPECT_FALSE(ref.error.empty());
        for (unsigned threads : {2u, 4u, 8u}) {
            const DetFaultOutcome got =
                runDetFault(site, plan, threads, continuation);
            EXPECT_EQ(got.error, ref.error) << site << " @ " << threads;
            EXPECT_EQ(got.stateHash, ref.stateHash)
                << site << " @ " << threads;
            EXPECT_EQ(got.trace, ref.trace) << site << " @ " << threads;
        }
        return ref;
    }
};

TEST_P(DetFaultPortability, InspectFault)
{
    const auto ref = assertPortable("det.inspect", FailPlan::throwAt(37));
    EXPECT_EQ(ref.error, "failpoint 'det.inspect' triggered (key=37)");
    // The failing round still ran to completion: its hook fired and it
    // committed tasks (the error excludes only task 37).
    ASSERT_FALSE(ref.trace.empty());
    EXPECT_GT(ref.trace.back()[2], 0u);
}

TEST_P(DetFaultPortability, CommitFault)
{
    // The commit failpoint sits before the commit execution, so an
    // injected commit fault produces no partial writes — the state is
    // still a pure function of the schedule.
    const auto ref = assertPortable("det.commit", FailPlan::throwAt(37));
    EXPECT_EQ(ref.error, "failpoint 'det.commit' triggered (key=37)");
}

TEST_P(DetFaultPortability, InspectAllocFault)
{
    // Simulated allocation failure takes the same capture path.
    const auto ref =
        assertPortable("det.inspect", FailPlan::badAllocAt(37));
    EXPECT_EQ(runDetFault("det.inspect", FailPlan::badAllocAt(37), 4,
                          GetParam())
                  .error,
              ref.error); // std::bad_alloc::what(), whatever it says
}

TEST_P(DetFaultPortability, MergeBookkeepingFault)
{
    // Thread-0 bookkeeping fault (key = completed rounds): recorded
    // with the bookkeeping id, which wins deterministically. The
    // failing round's hook never runs, so the trace has exactly 2
    // entries.
    const auto ref = assertPortable("det.merge", FailPlan::throwAt(2));
    EXPECT_EQ(ref.error, "failpoint 'det.merge' triggered (key=2)");
    EXPECT_EQ(ref.trace.size(), 2u);
}

TEST_P(DetFaultPortability, IdSortFault)
{
    // Generation-build fault (key = generation number): generation 1
    // completes in full, the error fires while sorting generation 2
    // (the children).
    const auto ref = assertPortable("det.idsort", FailPlan::throwAt(2));
    EXPECT_EQ(ref.error, "failpoint 'det.idsort' triggered (key=2)");
}

TEST_P(DetFaultPortability, SmallestTaskIdWinsWhenManyFault)
{
    // Several tasks fault in the same round (ids 5, 10, 15, ... via a
    // mod matcher): the reported error must be the smallest id's, on
    // every thread count — slice boundaries must not leak through.
    const auto ref = assertPortable(
        "det.inspect",
        FailPlan{FailPlan::Action::Throw, FailPlan::Match::Mod, 5, 0});
    EXPECT_EQ(ref.error, "failpoint 'det.inspect' triggered (key=5)");
}

TEST_P(DetFaultPortability, FaultedRunsAreReproducible)
{
    // Same plan, same thread count, run twice: bit-identical outcome.
    const bool continuation = GetParam();
    const auto a =
        runDetFault("det.inspect", FailPlan::throwAt(100), 4, continuation);
    const auto b =
        runDetFault("det.inspect", FailPlan::throwAt(100), 4, continuation);
    EXPECT_TRUE(a == b);
}

INSTANTIATE_TEST_SUITE_P(BaselineAndContinuation, DetFaultPortability,
                         ::testing::Bool());

// ---------------------------------------------------------------------
// Mark cleanliness of the deterministic backends
// ---------------------------------------------------------------------

/**
 * Both batched-mark backends clear every mark at the end of each round's
 * select phase, each thread releasing the marks its own slice's records
 * hold. Probe that from the outside on the contended cell workload:
 * every round boundary (the roundHook runs in the merge step, after
 * select) and the end of every run — clean or faulted at the inspect,
 * commit or merge site — must find all marks free, on 1/2/4/8 threads,
 * with continuation on and off, and a faulted run must deliver the same
 * error with the same task id (or round) on every thread count.
 */
class DetMarkCleanliness
    : public ::testing::TestWithParam<std::tuple<Exec, bool>>
{
  protected:
    void SetUp() override { failpoints::clearAll(); }
    void TearDown() override { failpoints::clearAll(); }

    struct Outcome
    {
        std::string error;
        std::uint64_t key = 0; //!< FailpointError::key(): id or round
        std::uint64_t stateHash = 0;
        std::uint64_t rounds = 0;
    };

    Exec exec() const { return std::get<0>(GetParam()); }

    /** The backend's failpoint for a phase: det.* or detres.*. */
    std::string
    site(const std::string& phase) const
    {
        if (exec() == Exec::Det)
            return "det." + phase;
        return "detres." + (phase == "inspect" ? "reserve" : phase);
    }

    Outcome
    run(const std::string& fault_site, const FailPlan* plan,
        unsigned threads)
    {
        failpoints::clearAll();
        if (plan)
            failpoints::set(fault_site, *plan);
        CellWorkload w(64, 3000, 500);
        Config cfg;
        cfg.exec = exec();
        cfg.threads = threads;
        cfg.det.continuation = std::get<1>(GetParam());
        // On 64 cells nearly every pair of tasks conflicts; a smaller
        // prefix cap keeps DetRes from re-reserving ~3000 tasks a round.
        cfg.detres.roundSize = 256;
        Outcome out;
        std::uint64_t dirty_rounds = 0;
        cfg.det.roundHook = [&](std::uint64_t, std::uint64_t,
                                std::uint64_t) {
            ++out.rounds;
            if (!w.allLocksFree())
                ++dirty_rounds;
        };
        try {
            galois::forEach(w.initialTasks(), w.op(), cfg);
        } catch (const FailpointError& e) {
            out.error = e.what();
            out.key = e.key();
        }
        failpoints::clearAll();
        EXPECT_EQ(dirty_rounds, 0u)
            << fault_site << " @ " << threads
            << ": marks still held at a round boundary";
        EXPECT_TRUE(w.allLocksFree())
            << fault_site << " @ " << threads << ": marks leaked";
        out.stateHash = w.hash();
        return out;
    }

    /** Faulted runs agree across 1/2/4/8 threads; returns the 1-thread
     *  outcome. */
    Outcome
    assertFaultPortable(const std::string& phase, const FailPlan& plan)
    {
        const std::string s = site(phase);
        const Outcome ref = run(s, &plan, 1);
        EXPECT_FALSE(ref.error.empty()) << s << " plan did not fire";
        for (unsigned threads : {2u, 4u, 8u}) {
            const Outcome got = run(s, &plan, threads);
            EXPECT_EQ(got.error, ref.error) << s << " @ " << threads;
            EXPECT_EQ(got.key, ref.key) << s << " @ " << threads;
            EXPECT_EQ(got.stateHash, ref.stateHash)
                << s << " @ " << threads;
            EXPECT_EQ(got.rounds, ref.rounds) << s << " @ " << threads;
        }
        return ref;
    }
};

TEST_P(DetMarkCleanliness, CleanAtEveryRoundBoundary)
{
    const Outcome ref = run("", nullptr, 1);
    EXPECT_TRUE(ref.error.empty());
    EXPECT_GT(ref.rounds, 1u);
    for (unsigned threads : {2u, 4u, 8u}) {
        const Outcome got = run("", nullptr, threads);
        EXPECT_EQ(got.stateHash, ref.stateHash) << threads << " threads";
        EXPECT_EQ(got.rounds, ref.rounds) << threads << " threads";
    }
}

// Task 1500 of 3000 is reached only after several rounds have
// installed and released marks.
TEST_P(DetMarkCleanliness, CleanAfterInspectFault)
{
    const Outcome ref =
        assertFaultPortable("inspect", FailPlan::throwAt(1500));
    EXPECT_EQ(ref.key, 1500u);
    EXPECT_GT(ref.rounds, 1u);
}

TEST_P(DetMarkCleanliness, CleanAfterCommitFault)
{
    const Outcome ref =
        assertFaultPortable("commit", FailPlan::throwAt(1500));
    EXPECT_EQ(ref.key, 1500u);
    EXPECT_GT(ref.rounds, 1u);
}

TEST_P(DetMarkCleanliness, CleanAfterMergeFault)
{
    // Keyed by the completed-round count: the failing round's hook never
    // runs, so exactly five round boundaries are observed.
    const Outcome ref = assertFaultPortable("merge", FailPlan::throwAt(5));
    EXPECT_EQ(ref.key, 5u);
    EXPECT_EQ(ref.rounds, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    DetAndDetRes, DetMarkCleanliness,
    ::testing::Combine(::testing::Values(Exec::Det, Exec::DetRes),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Exec, bool>>& info) {
        return std::string(std::get<0>(info.param) == Exec::Det
                               ? "Det"
                               : "DetRes") +
               (std::get<1>(info.param) ? "Continuation" : "Baseline");
    });

// ---------------------------------------------------------------------
// Progress watchdog
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, WatchdogDetectsNonCautiousOperator)
{
    // A non-cautious operator (acquires *after* its failsafe point)
    // under baseline selection livelocks: every select-phase
    // re-execution hits an unmarked location and conflicts, so every
    // round commits zero tasks, forever. The watchdog converts that
    // into a deterministic fail-fast diagnostic.
    auto run = [&](unsigned threads) {
        std::vector<Lockable> locks(8);
        std::vector<std::uint32_t> init(40);
        for (std::uint32_t i = 0; i < 40; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = threads;
        cfg.det.continuation = false; // baseline (DetCheck) selection
        cfg.det.watchdogRounds = 8;
        std::string error;
        std::uint64_t zero_rounds = 0;
        cfg.det.roundHook = [&](std::uint64_t, std::uint64_t,
                                std::uint64_t com) {
            if (com == 0)
                ++zero_rounds;
        };
        try {
            galois::forEach(
                init,
                [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
                    ctx.acquire(locks[i % 8]);
                    if (ctx.tryCautiousPoint())
                        return;
                    ctx.acquire(locks[(i + 1) % 8]); // NOT cautious
                },
                cfg);
        } catch (const LivelockError& e) {
            error = e.what();
        }
        EXPECT_EQ(zero_rounds, 8u) << threads << " threads";
        return error;
    };
    const std::string ref = run(1);
    ASSERT_FALSE(ref.empty()) << "watchdog did not fire";
    EXPECT_NE(ref.find("progress watchdog"), std::string::npos);
    EXPECT_NE(ref.find("8 consecutive rounds"), std::string::npos);
    EXPECT_NE(ref.find("stuck task ids"), std::string::npos);
    EXPECT_NE(ref.find("not cautious"), std::string::npos);
    // The adaptive window policy's labels: Det, not DetRes, and its window.
    EXPECT_NE(ref.find(", window "), std::string::npos) << ref;
    EXPECT_EQ(ref.find("DetRes"), std::string::npos) << ref;
    EXPECT_EQ(ref.find("prefix"), std::string::npos) << ref;
    // The diagnostic — including the stuck ids — is thread-count
    // invariant, like everything else about the schedule.
    EXPECT_EQ(run(2), ref);
    EXPECT_EQ(run(4), ref);
}

TEST_F(ResilienceTest, WatchdogNeverMisfiresOnCautiousOperators)
{
    // A correct cautious operator commits at least one task per round
    // (the maximal-id task always keeps all its marks), so even the
    // tightest possible watchdog must never fire.
    for (bool continuation : {true, false}) {
        CellWorkload w(4, 800); // heavy conflicts: tiny commit ratio
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = 4;
        cfg.det.continuation = continuation;
        cfg.det.watchdogRounds = 1;
        auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
        EXPECT_EQ(report.committed, 800u);
    }
}

TEST_F(ResilienceTest, AllAbortLivelockTripsAtSameRoundOnEveryThreadCount)
{
    // All-abort schedule: every round re-executes the same window and
    // commits nothing. The watchdog must fire after *exactly*
    // watchdogRounds rounds — not one more, not one fewer — and the
    // trip round, the committed count and the full diagnostic must be
    // identical on 1, 2, 4 and 8 threads. The round number is part of
    // the message, so string equality pins it.
    constexpr std::uint64_t kWatchdog = 5;
    auto run = [&](Exec exec, const char* label, unsigned threads) {
        std::vector<Lockable> locks(4);
        std::vector<std::uint32_t> init(24);
        for (std::uint32_t i = 0; i < 24; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = exec;
        cfg.threads = threads;
        cfg.det.continuation = false; // baseline (DetCheck) selection
        cfg.det.watchdogRounds = kWatchdog;
        std::uint64_t rounds = 0;
        std::uint64_t committed = 0;
        cfg.det.roundHook = [&](std::uint64_t, std::uint64_t,
                                std::uint64_t com) {
            ++rounds;
            committed += com;
        };
        std::string error;
        try {
            galois::forEach(
                init,
                [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
                    ctx.acquire(locks[i % 4]);
                    if (ctx.tryCautiousPoint())
                        return;
                    ctx.acquire(locks[(i + 1) % 4]); // NOT cautious
                },
                cfg);
        } catch (const LivelockError& e) {
            error = e.what();
        }
        EXPECT_EQ(committed, 0u)
            << label << " t=" << threads
            << ": a round committed work in an all-abort schedule";
        EXPECT_EQ(rounds, kWatchdog) << label << " t=" << threads;
        return error;
    };

    const std::string ref = run(Exec::Det, "det", 1);
    ASSERT_FALSE(ref.empty()) << "watchdog did not fire";
    EXPECT_NE(ref.find("round " + std::to_string(kWatchdog)),
              std::string::npos)
        << ref;
    for (unsigned t : {2u, 4u, 8u})
        EXPECT_EQ(run(Exec::Det, "det", t), ref) << t << " threads";

    // The serial reference oracle trips its own watchdog at the same
    // round (its message names the executor, so compare the round).
    const std::string oracle = run(Exec::DetRef, "det-ref", 1);
    ASSERT_FALSE(oracle.empty()) << "DetRef watchdog did not fire";
    EXPECT_NE(oracle.find("progress watchdog"), std::string::npos);
    EXPECT_NE(oracle.find("round " + std::to_string(kWatchdog)),
              std::string::npos)
        << oracle;
}

// ---------------------------------------------------------------------
// Wall-clock job watchdog (deadlines and cancellation)
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, WallDeadlineTripsAsDeadlineError)
{
    // An (effectively) already-expired deadline must abort the run at
    // the first round boundary with a DeadlineError — and must not
    // poison the pool or the arena: the same workload runs clean right
    // after, producing its usual digest.
    CellWorkload w(16, 200);
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 4;
    cfg.det.wallDeadlineSeconds = 1e-12;
    std::string error;
    try {
        galois::forEach(w.initialTasks(), w.op(), cfg);
    } catch (const galois::DeadlineError& e) {
        error = e.what();
    }
    ASSERT_FALSE(error.empty()) << "deadline did not fire";
    EXPECT_NE(error.find("wall-clock deadline"), std::string::npos);
    EXPECT_NE(error.find("job watchdog"), std::string::npos);

    CellWorkload clean1(16, 200), clean2(16, 200);
    cfg.det.wallDeadlineSeconds = 0;
    auto ref = galois::forEach(clean1.initialTasks(), clean1.op(), cfg);
    cfg.det.wallDeadlineSeconds = 3600; // generous: must not trip
    auto timed =
        galois::forEach(clean2.initialTasks(), clean2.op(), cfg);
    EXPECT_EQ(timed.committed, 200u);
    EXPECT_EQ(timed.traceDigest, ref.traceDigest);
    EXPECT_EQ(clean1.values, clean2.values);
}

TEST_F(ResilienceTest, CancelFlagAbortsAtRoundBoundary)
{
    // A raised cancel flag (the service's shutdown path) aborts the
    // run exactly like an expired deadline, with a diagnostic naming
    // the cancellation rather than a deadline.
    CellWorkload w(16, 200);
    std::atomic<bool> cancel{true};
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 2;
    cfg.det.cancelFlag = &cancel;
    std::string error;
    try {
        galois::forEach(w.initialTasks(), w.op(), cfg);
    } catch (const galois::DeadlineError& e) {
        error = e.what();
    }
    ASSERT_FALSE(error.empty()) << "cancellation did not fire";
    EXPECT_NE(error.find("cancelled"), std::string::npos);

    // An unraised flag is free: the run completes and matches the
    // no-flag digest.
    cancel.store(false);
    CellWorkload w2(16, 200), ref(16, 200);
    auto flagged = galois::forEach(w2.initialTasks(), w2.op(), cfg);
    cfg.det.cancelFlag = nullptr;
    auto plain = galois::forEach(ref.initialTasks(), ref.op(), cfg);
    EXPECT_EQ(flagged.committed, 200u);
    EXPECT_EQ(flagged.traceDigest, plain.traceDigest);
}

TEST_F(ResilienceTest, NegativeWallDeadlineIsRejected)
{
    CellWorkload w(4, 8);
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.det.wallDeadlineSeconds = -1;
    EXPECT_THROW(galois::forEach(w.initialTasks(), w.op(), cfg),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// DetOptions validation
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, InvalidCommitTargetIsRejected)
{
    for (double bad : {0.0, -0.5, 1.5}) {
        galois::DetOptions opt;
        opt.commitTarget = bad;
        EXPECT_THROW((void)opt.validated(), std::invalid_argument) << bad;
        // And through the executor, identically on every thread count.
        for (unsigned threads : {1u, 4u}) {
            CellWorkload w(16, 50);
            Config cfg;
            cfg.exec = Exec::Det;
            cfg.threads = threads;
            cfg.det.commitTarget = bad;
            EXPECT_THROW(galois::forEach(w.initialTasks(), w.op(), cfg),
                         std::invalid_argument)
                << bad << " @ " << threads;
        }
    }
}

TEST_F(ResilienceTest, DegenerateWindowKnobsAreClamped)
{
    // minWindow == 0 would freeze the adaptive window at zero (an
    // infinite loop on a non-empty queue); spreadBuckets == 0 would
    // divide by zero in the spread. validated() clamps both to 1, so
    // these runs must complete and match the explicit-1 configuration
    // bit for bit.
    auto run = [&](std::uint64_t min_window, std::uint64_t buckets,
                   unsigned threads) {
        CellWorkload w(48, 1500, 200);
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = threads;
        cfg.det.minWindow = min_window;
        cfg.det.spreadBuckets = buckets;
        auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
        EXPECT_EQ(report.committed, 1700u);
        return w.hash();
    };
    const std::uint64_t ref = run(1, 1, 1);
    EXPECT_EQ(run(0, 0, 1), ref);
    EXPECT_EQ(run(0, 0, 4), ref);
    EXPECT_EQ(run(0, 1, 8), ref);
    EXPECT_EQ(run(1, 0, 2), ref);
}

// ---------------------------------------------------------------------
// Speculative executor: capture, release, drain, rethrow
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, NonDetInjectedFaultDrainsAndRethrows)
{
    // Disjoint neighborhoods: removing task X is the only effect a
    // fault may have, so the final state is identical on every thread
    // count even for the speculative executor.
    constexpr std::uint32_t kTasks = 2000, kVictim = 123;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        failpoints::clearAll();
        failpoints::set("nondet.task", FailPlan::throwAt(kVictim));
        DisjointWorkload w(kTasks);
        Config cfg;
        cfg.exec = Exec::NonDet;
        cfg.threads = threads;
        std::string error;
        try {
            galois::forEach(w.initialTasks(), w.op(), cfg);
        } catch (const FailpointError& e) {
            error = e.what();
        }
        EXPECT_EQ(error, "failpoint 'nondet.task' triggered (key=123)")
            << threads << " threads";
        EXPECT_TRUE(w.allLocksFree()) << threads << " threads";
        // Every task except the victim completed: the error did not
        // truncate the drain.
        for (std::uint32_t i = 0; i < kTasks; ++i) {
            EXPECT_EQ(w.values[i],
                      i == kVictim ? 0 : static_cast<std::int64_t>(i) + 1)
                << "task " << i << " @ " << threads << " threads";
        }
    }
}

TEST_F(ResilienceTest, NonDetCommitSiteFaultFiresAfterTheWork)
{
    // The nondet.commit site models a failure *after* the operator ran
    // (cautious tasks have no undo): the victim's write survives, the
    // error is still captured and everything still drains.
    failpoints::clearAll();
    failpoints::set("nondet.commit", FailPlan::throwAt(123));
    DisjointWorkload w(500);
    Config cfg;
    cfg.exec = Exec::NonDet;
    cfg.threads = 4;
    EXPECT_THROW(galois::forEach(w.initialTasks(), w.op(), cfg),
                 FailpointError);
    EXPECT_TRUE(w.allLocksFree());
    for (std::uint32_t i = 0; i < 500; ++i)
        EXPECT_EQ(w.values[i], static_cast<std::int64_t>(i) + 1);
}

TEST_F(ResilienceTest, NonDetOperatorExceptionPropagates)
{
    // The operator itself throws after acquiring its neighborhood —
    // the exact scenario that used to strand peers on termination
    // detection. On every thread count: no hang, marks released, the
    // original exception (type and message) rethrown, and all other
    // tasks still executed.
    constexpr std::uint32_t kTasks = 1500, kVictim = 777;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        std::vector<std::int64_t> values(16, 0);
        std::vector<Lockable> locks(16);
        std::vector<std::uint32_t> init(kTasks);
        for (std::uint32_t i = 0; i < kTasks; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = Exec::NonDet;
        cfg.threads = threads;
        std::string error;
        try {
            galois::forEach(
                init,
                [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
                    const std::size_t a = i % values.size();
                    const std::size_t b =
                        (std::size_t(i) * 13 + 5) % values.size();
                    ctx.acquire(locks[a]);
                    ctx.acquire(locks[b]);
                    if (i == kVictim)
                        throw std::runtime_error("task 777 exploded");
                    if (ctx.tryCautiousPoint())
                        return;
                    values[a] += i;
                    values[b] += 2 * i;
                },
                cfg);
        } catch (const std::runtime_error& e) {
            error = e.what();
        }
        EXPECT_EQ(error, "task 777 exploded") << threads << " threads";
        for (const Lockable& l : locks)
            EXPECT_EQ(l.owner(), nullptr) << threads << " threads";
        // Commutative updates: all tasks but the victim contributed.
        std::int64_t expect = 0;
        for (std::uint32_t i = 0; i < kTasks; ++i)
            if (i != kVictim)
                expect += 3 * static_cast<std::int64_t>(i);
        std::int64_t total = 0;
        for (std::int64_t v : values)
            total += v;
        EXPECT_EQ(total, expect) << threads << " threads";
    }
}

TEST_F(ResilienceTest, NonDetManyFaultsStillDrain)
{
    // A tenth of all tasks fail. The run must still drain (the old
    // executor hung as soon as one exception escaped) and deliver the
    // contributions of every healthy task.
    constexpr std::uint32_t kTasks = 2000;
    for (unsigned threads : {4u, 8u}) {
        std::vector<std::int64_t> values(8, 0);
        std::vector<Lockable> locks(8);
        std::vector<std::uint32_t> init(kTasks);
        for (std::uint32_t i = 0; i < kTasks; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = Exec::NonDet;
        cfg.threads = threads;
        EXPECT_THROW(
            galois::forEach(
                init,
                [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
                    ctx.acquire(locks[i % 8]);
                    if (i % 10 == 0)
                        throw std::runtime_error("unlucky");
                    if (ctx.tryCautiousPoint())
                        return;
                    values[i % 8] += i;
                },
                cfg),
            std::runtime_error);
        for (const Lockable& l : locks)
            EXPECT_EQ(l.owner(), nullptr);
        std::int64_t expect = 0;
        for (std::uint32_t i = 0; i < kTasks; ++i)
            if (i % 10 != 0)
                expect += i;
        std::int64_t total = 0;
        for (std::int64_t v : values)
            total += v;
        EXPECT_EQ(total, expect) << threads << " threads";
    }
}

TEST_F(ResilienceTest, SameFaultPlanReplaysAcrossSchedulers)
{
    // serial.task and nondet.task key by the task value, so one plan
    // hits the same logical task — and raises the same error — under
    // either scheduler. What happens to the *other* tasks is each
    // scheduler's documented fault semantics: serial fail-stops at the
    // faulting task (FIFO prefix completed, suffix untouched), the
    // speculative executor drains everything else first.
    auto run = [&](Exec exec, unsigned threads, std::string& error,
                   DisjointWorkload& w) {
        failpoints::clearAll();
        ASSERT_TRUE(failpoints::parseSpec(
                        "serial.task=throw@eq:42;nondet.task=throw@eq:42"))
            << "spec failed to parse";
        Config cfg;
        cfg.exec = exec;
        cfg.threads = threads;
        try {
            galois::forEach(w.initialTasks(), w.op(), cfg);
        } catch (const FailpointError& e) {
            error = e.what();
        }
        EXPECT_TRUE(w.allLocksFree());
        EXPECT_EQ(w.values[42], 0) << "exec " << static_cast<int>(exec);
    };

    DisjointWorkload serial_w(300);
    std::string serial_err;
    run(Exec::Serial, 1, serial_err, serial_w);
    EXPECT_EQ(serial_err, "failpoint 'serial.task' triggered (key=42)");
    for (std::uint32_t i = 0; i < 300; ++i)
        EXPECT_EQ(serial_w.values[i],
                  i < 42 ? static_cast<std::int64_t>(i) + 1 : 0)
            << "serial task " << i;

    for (unsigned threads : {1u, 4u}) {
        DisjointWorkload nd_w(300);
        std::string nd_err;
        run(Exec::NonDet, threads, nd_err, nd_w);
        EXPECT_EQ(nd_err, "failpoint 'nondet.task' triggered (key=42)");
        for (std::uint32_t i = 0; i < 300; ++i)
            EXPECT_EQ(nd_w.values[i],
                      i == 42 ? 0 : static_cast<std::int64_t>(i) + 1)
                << "nondet task " << i << " @ " << threads;
    }
}

// ---------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, BackoffYieldsAccumulateIntoTheReport)
{
    galois::runtime::ThreadStats a, b;
    a.backoffYields = 5;
    a.committed = 1;
    b.backoffYields = 7;
    a += b;
    EXPECT_EQ(a.backoffYields, 12u);
    galois::RunReport r;
    r.accumulate(a);
    EXPECT_EQ(r.backoffYields, 12u);
}

} // namespace
