/**
 * @file
 * Unit and property tests for the executors.
 *
 * The central properties under test mirror the paper's claims:
 *
 *  - *Correctness*: every executor commits each task exactly once and the
 *    result is serializable (commutative workloads match the serial sum).
 *  - *Determinism & portability* (Exec::Det): for a workload whose result
 *    is order-sensitive (non-commutative updates), the final state is
 *    bit-identical across thread counts.
 *  - *Equivalence of the continuation optimization*: baseline mark-check
 *    selection and flag-protocol selection commit the same independent
 *    sets, hence identical outputs.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "galois/galois.h"
#include "runtime/worklist.h"
#include "support/barrier.h"
#include "support/thread_pool.h"

using galois::Config;
using galois::Exec;
using galois::Lockable;

namespace {

/**
 * Conflict-heavy order-sensitive workload over N shared cells.
 *
 * Task i touches cells i%N and (i*7+3)%N with non-commutative updates, so
 * the final state encodes the serialization order — a sharp determinism
 * probe. Tasks with i < spawn_limit push a child task i + total.
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

    /** FNV-style hash of the final state. */
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
};

/** Commutative variant: final state independent of ANY serialization. */
struct SumWorkload
{
    explicit SumWorkload(std::size_t cells, std::uint32_t tasks)
        : values(cells, 0), locks(cells), numTasks(tasks)
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
            const std::size_t a = i % values.size();
            const std::size_t b = (std::size_t(i) * 13 + 5) % values.size();
            ctx.acquire(locks[a]);
            ctx.acquire(locks[b]);
            if (ctx.tryCautiousPoint())
                return;
            values[a] += i;
            values[b] += 2 * i;
        };
    }

    std::int64_t
    total() const
    {
        std::int64_t s = 0;
        for (std::int64_t v : values)
            s += v;
        return s;
    }
};

std::uint64_t
runCellWorkload(Exec exec, unsigned threads, bool continuation,
                std::uint32_t tasks = 3000, std::size_t cells = 64,
                std::uint32_t spawn = 500,
                galois::RunReport* out_report = nullptr)
{
    CellWorkload w(cells, tasks, spawn);
    Config cfg;
    cfg.exec = exec;
    cfg.threads = threads;
    cfg.det.continuation = continuation;
    auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
    if (out_report)
        *out_report = report;
    return w.hash();
}

} // namespace

// ---------------------------------------------------------------------
// Worklist
// ---------------------------------------------------------------------

TEST(Worklist, DrainsEverythingAcrossThreads)
{
    galois::runtime::ChunkedWorklist<int> wl;
    constexpr int kItems = 10000;
    std::vector<std::atomic<int>> seen(kItems);
    // Seed from the main thread; drain with 4 threads (exercises steals).
    for (int i = 0; i < kItems; ++i)
        wl.push(i);
    galois::support::ThreadPool::get().run(4, [&](unsigned) {
        while (auto item = wl.pop())
            seen[*item].fetch_add(1);
    });
    for (int i = 0; i < kItems; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "item " << i;
}

TEST(Worklist, FifoPolicyPreservesSingleThreadOrder)
{
    galois::runtime::ChunkedWorklist<int> wl(
        galois::WorklistPolicy{/*fifo=*/true, /*chunkSize=*/64});
    for (int i = 0; i < 300; ++i)
        wl.push(i);
    for (int i = 0; i < 300; ++i) {
        auto item = wl.pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_FALSE(wl.pop().has_value());
}

TEST(Worklist, LifoPolicyDrainsEverythingAcrossThreads)
{
    galois::runtime::ChunkedWorklist<int> wl(
        galois::WorklistPolicy{/*fifo=*/false, /*chunkSize=*/64});
    constexpr int kItems = 10000;
    std::vector<std::atomic<int>> seen(kItems);
    for (int i = 0; i < kItems; ++i)
        wl.push(i);
    galois::support::ThreadPool::get().run(4, [&](unsigned) {
        while (auto item = wl.pop())
            seen[*item].fetch_add(1);
    });
    for (int i = 0; i < kItems; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "item " << i;
}

TEST(Worklist, TinyChunksForceSharedDequeTraffic)
{
    // chunkSize 1 promotes every push to the shared deque: the
    // steal/refill paths run constantly instead of only at chunk
    // boundaries.
    galois::runtime::ChunkedWorklist<int> wl(
        galois::WorklistPolicy{/*fifo=*/true, /*chunkSize=*/1});
    for (int i = 0; i < 500; ++i)
        wl.push(i);
    for (int i = 0; i < 500; ++i) {
        auto item = wl.pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_FALSE(wl.pop().has_value());
}

TEST(NonDetExecutor, BothWorklistPoliciesAreCorrect)
{
    for (auto policy :
         {galois::NdWorklist::ChunkedFifo, galois::NdWorklist::ChunkedLifo}) {
        for (unsigned chunk : {1u, 64u}) {
            SumWorkload w(32, 3000);
            Config cfg;
            cfg.exec = Exec::NonDet;
            cfg.threads = 4;
            cfg.ndWorklist = policy;
            cfg.ndChunkSize = chunk;
            auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
            EXPECT_EQ(report.committed, 3000u);
            std::int64_t expect = 0;
            for (std::uint32_t i = 0; i < 3000; ++i)
                expect += 3 * static_cast<std::int64_t>(i);
            EXPECT_EQ(w.total(), expect);
        }
    }
}

TEST(Worklist, PushPopInterleaved)
{
    galois::runtime::ChunkedWorklist<int> wl;
    int popped = 0;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 100; ++i)
            wl.push(i);
        for (int i = 0; i < 50; ++i)
            if (wl.pop())
                ++popped;
    }
    while (wl.pop())
        ++popped;
    EXPECT_EQ(popped, 1000);
}

// ---------------------------------------------------------------------
// Serial executor
// ---------------------------------------------------------------------

TEST(SerialExecutor, FifoOrderAndPushes)
{
    std::vector<int> order;
    std::vector<int> init{1, 2, 3};
    Config cfg;
    cfg.exec = Exec::Serial;
    auto report = galois::forEach(
        init,
        [&](int& x, galois::Context<int>& ctx) {
            order.push_back(x);
            if (x < 3)
                ctx.push(x + 10);
        },
        cfg);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 11, 12}));
    EXPECT_EQ(report.committed, 5u);
    EXPECT_EQ(report.pushed, 2u);
    EXPECT_EQ(report.aborted, 0u);
}

// ---------------------------------------------------------------------
// Non-deterministic executor
// ---------------------------------------------------------------------

TEST(NonDetExecutor, CommitsEveryTaskOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        SumWorkload w(32, 5000);
        Config cfg;
        cfg.exec = Exec::NonDet;
        cfg.threads = threads;
        auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
        EXPECT_EQ(report.committed, 5000u) << threads << " threads";
        // Commutative updates: any serializable execution gives the sum.
        std::int64_t expect = 0;
        for (std::uint32_t i = 0; i < 5000; ++i)
            expect += 3 * static_cast<std::int64_t>(i);
        EXPECT_EQ(w.total(), expect) << threads << " threads";
    }
}

TEST(NonDetExecutor, DynamicTaskCreation)
{
    // Each task i in [0, 100) spawns i+100; tasks in [100, 200) spawn
    // nothing. Total = 200.
    std::vector<std::uint32_t> init(100);
    for (std::uint32_t i = 0; i < 100; ++i)
        init[i] = i;
    std::vector<std::atomic<int>> seen(200);
    Config cfg;
    cfg.exec = Exec::NonDet;
    cfg.threads = 4;
    auto report = galois::forEach(
        init,
        [&](std::uint32_t& x, galois::Context<std::uint32_t>& ctx) {
            seen[x].fetch_add(1);
            if (x < 100)
                ctx.push(x + 100);
        },
        cfg);
    EXPECT_EQ(report.committed, 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "task " << i;
}

TEST(NonDetExecutor, SerializableUnderHeavyConflicts)
{
    // 4 cells, 2000 tasks: almost every pair of concurrent tasks
    // conflicts, forcing the abort/retry path.
    for (unsigned threads : {2u, 4u}) {
        SumWorkload w(4, 2000);
        Config cfg;
        cfg.exec = Exec::NonDet;
        cfg.threads = threads;
        auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
        EXPECT_EQ(report.committed, 2000u);
        std::int64_t expect = 0;
        for (std::uint32_t i = 0; i < 2000; ++i)
            expect += 3 * static_cast<std::int64_t>(i);
        EXPECT_EQ(w.total(), expect);
    }
}

// ---------------------------------------------------------------------
// Deterministic executor: correctness
// ---------------------------------------------------------------------

TEST(DetExecutor, CommitsEveryTaskOnce)
{
    galois::RunReport report;
    runCellWorkload(Exec::Det, 4, true, 3000, 64, 500, &report);
    EXPECT_EQ(report.committed, 3500u); // 3000 initial + 500 children
    EXPECT_GT(report.rounds, 0u);
    EXPECT_EQ(report.generations, 2u); // children form a second generation
}

TEST(DetExecutor, SerializableResult)
{
    // Commutative workload: deterministic scheduling must still produce
    // the serial sum.
    SumWorkload w(16, 4000);
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 4;
    auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
    EXPECT_EQ(report.committed, 4000u);
    std::int64_t expect = 0;
    for (std::uint32_t i = 0; i < 4000; ++i)
        expect += 3 * static_cast<std::int64_t>(i);
    EXPECT_EQ(w.total(), expect);
}

// ---------------------------------------------------------------------
// Deterministic executor: portability (thread-count invariance)
// ---------------------------------------------------------------------

class DetPortability : public ::testing::TestWithParam<bool>
{};

TEST_P(DetPortability, OutputInvariantAcrossThreadCounts)
{
    const bool continuation = GetParam();
    const std::uint64_t h1 = runCellWorkload(Exec::Det, 1, continuation);
    for (unsigned threads : {2u, 3u, 4u, 7u, 8u}) {
        EXPECT_EQ(runCellWorkload(Exec::Det, threads, continuation), h1)
            << threads << " threads, continuation=" << continuation;
    }
}

INSTANTIATE_TEST_SUITE_P(BaselineAndContinuation, DetPortability,
                         ::testing::Bool());

TEST(DetExecutor, ContinuationDoesNotChangeOutput)
{
    // The flag protocol must select exactly the same independent sets as
    // the baseline mark re-check (Section 3.3's protocol change is an
    // optimization, not a semantic change).
    for (unsigned threads : {1u, 4u}) {
        EXPECT_EQ(runCellWorkload(Exec::Det, threads, true),
                  runCellWorkload(Exec::Det, threads, false))
            << threads << " threads";
    }
}

TEST(DetExecutor, RoundScheduleIsThreadCountInvariant)
{
    // Stronger than output invariance: the entire round-by-round
    // schedule — window sizes, attempted counts, committed counts — must
    // be identical for every thread count.
    auto trace = [&](unsigned threads) {
        CellWorkload w(48, 2500, 400);
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = threads;
        std::vector<std::array<std::uint64_t, 3>> rounds;
        cfg.det.roundHook = [&](std::uint64_t win, std::uint64_t att,
                                std::uint64_t com) {
            rounds.push_back({win, att, com});
        };
        galois::forEach(w.initialTasks(), w.op(), cfg);
        return rounds;
    };
    const auto ref = trace(1);
    EXPECT_GT(ref.size(), 2u);
    EXPECT_EQ(trace(2), ref);
    EXPECT_EQ(trace(4), ref);
    EXPECT_EQ(trace(8), ref);
}

TEST(DetExecutor, RepeatedRunsAreIdentical)
{
    const std::uint64_t h = runCellWorkload(Exec::Det, 4, true);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(runCellWorkload(Exec::Det, 4, true), h);
}

// ---------------------------------------------------------------------
// Deterministic executor: parameter sweep (each parameter point is
// individually deterministic across thread counts)
// ---------------------------------------------------------------------

struct DetParams
{
    bool continuation;
    bool spread;
    double commitTarget;
    std::uint64_t minWindow;
    /** Non-zero: run Exec::DetRes with roundSize == initialPrefix == this
     *  (a fixed round size) instead of the adaptive Exec::Det window. */
    std::uint64_t fixedRound = 0;
};

class DetParamSweep : public ::testing::TestWithParam<DetParams>
{};

TEST_P(DetParamSweep, ThreadCountInvariance)
{
    const DetParams p = GetParam();
    auto run = [&](unsigned threads) {
        CellWorkload w(48, 2000, 300);
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = threads;
        cfg.det.continuation = p.continuation;
        cfg.det.localitySpread = p.spread;
        cfg.det.commitTarget = p.commitTarget;
        cfg.det.minWindow = p.minWindow;
        if (p.fixedRound != 0) {
            cfg.exec = Exec::DetRes;
            cfg.detres.roundSize = p.fixedRound;
            cfg.detres.initialPrefix = p.fixedRound;
        }
        auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
        EXPECT_EQ(report.committed, 2300u);
        return w.hash();
    };
    const std::uint64_t h = run(1);
    EXPECT_EQ(run(2), h);
    EXPECT_EQ(run(4), h);
    EXPECT_EQ(run(8), h);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetParamSweep,
    ::testing::Values(DetParams{true, true, 0.95, 16},
                      DetParams{true, false, 0.95, 16},
                      DetParams{false, true, 0.95, 16},
                      DetParams{false, false, 0.5, 4},
                      DetParams{true, true, 0.5, 64},
                      DetParams{true, true, 0.999, 1},
                      DetParams{true, true, 0.95, 16, /*fixedRound=*/7},
                      DetParams{false, true, 0.95, 16,
                                /*fixedRound=*/911}));

TEST(DetResFixedRound, EveryRoundAdmitsExactlyRoundSize)
{
    // roundSize == initialPrefix == W is a fixed window: every round's
    // admission size is W, whatever its commit ratio.
    for (std::uint64_t w : {7u, 911u}) {
        CellWorkload work(48, 2000, 300);
        Config cfg;
        cfg.exec = Exec::DetRes;
        cfg.threads = 4;
        cfg.detres.roundSize = w;
        cfg.detres.initialPrefix = w;
        const auto report =
            galois::forEach(work.initialTasks(), work.op(), cfg);
        EXPECT_EQ(report.committed, 2300u);
        ASSERT_EQ(report.roundTrace.size(), report.rounds);
        for (const auto& sample : report.roundTrace)
            EXPECT_EQ(sample.window, w);
    }
}

// ---------------------------------------------------------------------
// Atomicity (serializability smoke test)
// ---------------------------------------------------------------------

TEST(Executors, RebalancePreservesTotalUnderHeavyConflicts)
{
    // Each task rebalances two cells: t = a + b; a = t/2; b = t - t/2.
    // The total is preserved *only* if tasks are atomic — interleaved
    // stale reads corrupt it. Few cells + many tasks maximizes conflict
    // pressure on the abort/retry and select paths.
    for (auto [exec, threads] :
         {std::pair{Exec::NonDet, 4u}, std::pair{Exec::NonDet, 8u},
          std::pair{Exec::Det, 4u}, std::pair{Exec::Det, 8u}}) {
        constexpr std::size_t kCells = 6;
        std::vector<std::int64_t> cells(kCells);
        std::vector<Lockable> locks(kCells);
        std::int64_t expect = 0;
        for (std::size_t c = 0; c < kCells; ++c) {
            cells[c] = static_cast<std::int64_t>(1000 * c + 37);
            expect += cells[c];
        }
        std::vector<std::uint32_t> init(4000);
        for (std::uint32_t i = 0; i < init.size(); ++i)
            init[i] = i;

        Config cfg;
        cfg.exec = exec;
        cfg.threads = threads;
        galois::forEach(
            init,
            [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
                const std::size_t a = i % kCells;
                const std::size_t b = (i / kCells + a + 1) % kCells;
                if (a == b)
                    return;
                ctx.acquire(locks[a]);
                ctx.acquire(locks[b]);
                if (ctx.tryCautiousPoint())
                    return;
                const std::int64_t t = cells[a] + cells[b];
                cells[a] = t / 2;
                cells[b] = t - t / 2;
            },
            cfg);

        std::int64_t total = 0;
        for (std::int64_t v : cells)
            total += v;
        EXPECT_EQ(total, expect)
            << "exec " << static_cast<int>(exec) << " threads "
            << threads;
    }
}

// ---------------------------------------------------------------------
// Continuation local state
// ---------------------------------------------------------------------

TEST(DetExecutor, SavedStateRoundTrip)
{
    // Operator saves a value at inspect and must see it again at commit
    // (only in DetCommit mode; other modes recompute).
    struct Saved
    {
        std::uint64_t tag;
    };
    std::vector<Lockable> locks(8);
    std::vector<std::int64_t> cells(8, 0);
    std::vector<std::uint32_t> init(64);
    for (std::uint32_t i = 0; i < 64; ++i)
        init[i] = i;
    std::atomic<int> resumed{0}, recomputed{0};

    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 4;
    auto report = galois::forEach(
        init,
        [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
            Saved* s = ctx.savedState<Saved>();
            if (s) {
                resumed.fetch_add(1);
                EXPECT_EQ(s->tag, std::uint64_t(i) * 31 + 7);
            } else {
                recomputed.fetch_add(1);
                ctx.acquire(locks[i % 8]);
                ctx.saveState<Saved>(std::uint64_t(i) * 31 + 7);
            }
            if (ctx.tryCautiousPoint())
                return;
            cells[i % 8] += i;
        },
        cfg);
    EXPECT_EQ(report.committed, 64u);
    // Every committed task resumed from saved state (continuation on).
    EXPECT_EQ(resumed.load(), 64);
    // Inspect executions (including retries) recomputed.
    EXPECT_GE(recomputed.load(), 64);
}

TEST(DetExecutor, PreassignedIds)
{
    // Children pushed with explicit ids must be processed in id order in
    // the next generation, regardless of parent commit order.
    std::vector<Lockable> locks(1);
    std::vector<int> order;
    std::vector<std::uint32_t> init{0, 1, 2, 3};
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 4;
    cfg.det.localitySpread = false;
    cfg.det.minWindow = 1000; // single round per generation
    galois::forEach(
        init,
        [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
            ctx.acquire(locks[0]);
            if (ctx.tryCautiousPoint())
                return;
            if (i < 4) {
                // Parent i pushes child 100+i with a pair-swapped
                // pre-assigned id: 0->2, 1->1, 2->4, 3->3.
                const std::uint64_t preid = (i % 2 == 0) ? i + 2 : i;
                ctx.push(100 + i, preid);
            } else {
                order.push_back(static_cast<int>(i));
            }
        },
        cfg);
    // Children sort by pre-assigned id: 101(1), 100(2), 103(3), 102(4),
    // receiving generation ids 1..4 in that order. All four conflict on
    // locks[0], so exactly one commits per round — and within a window
    // the *earliest* id wins (the id-order markMin discipline, which is
    // what makes the committed state serial-order equivalent). Hence the
    // commit order is 101 (id 1), 100 (2), 103 (3), 102 (4).
    EXPECT_EQ(order, (std::vector<int>{101, 100, 103, 102}));
}

// ---------------------------------------------------------------------
// Cross-executor agreement
// ---------------------------------------------------------------------

TEST(Executors, AgreeOnCommutativeWorkloads)
{
    auto run = [&](Exec exec, unsigned threads) {
        SumWorkload w(16, 3000);
        Config cfg;
        cfg.exec = exec;
        cfg.threads = threads;
        galois::forEach(w.initialTasks(), w.op(), cfg);
        return w.total();
    };
    const std::int64_t serial = run(Exec::Serial, 1);
    EXPECT_EQ(run(Exec::NonDet, 4), serial);
    EXPECT_EQ(run(Exec::Det, 4), serial);
}

TEST(Executors, EmptyInitialIsANoOp)
{
    std::vector<int> init;
    for (Exec exec : {Exec::Serial, Exec::NonDet, Exec::Det}) {
        Config cfg;
        cfg.exec = exec;
        cfg.threads = 4;
        auto report = galois::forEach(
            init, [](int&, galois::Context<int>&) { FAIL(); }, cfg);
        EXPECT_EQ(report.committed, 0u);
    }
}

TEST(Executors, ReportsCountAtomicsAndCacheModel)
{
    SumWorkload w(16, 1000);
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 2;
    cfg.collectLocality = true;
    auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
    // The batched mark protocol resolves conflicts with a serial fold of
    // plain stores: the deterministic executor performs zero atomic
    // read-modify-writes, and nothing here calls countAtomic().
    EXPECT_EQ(report.atomicOps, 0u);
    EXPECT_GT(report.cacheAccesses, 0u);
    EXPECT_GE(report.cacheAccesses, report.cacheMisses);

    // The speculative executor still pays CAS-acquired marks — the
    // contrast the Figure 5 accounting exists to show.
    cfg.exec = Exec::NonDet;
    SumWorkload w2(16, 1000);
    auto nd = galois::forEach(w2.initialTasks(), w2.op(), cfg);
    EXPECT_GT(nd.atomicOps, 0u);
}

TEST(Executors, DetScheduleIsThreadCountInvariant)
{
    // The fused round protocol (serial steps in barrier completion
    // sections, two rendezvous per round) must produce bit-identical
    // schedules — same digest, rounds, committed — at every thread
    // count, with and without the continuation optimization. This is
    // the executable counterpart of the quiescence argument in
    // DESIGN.md §13.
    auto run = [&](unsigned threads, bool continuation) {
        SumWorkload w(16, 2000);
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = threads;
        cfg.det.continuation = continuation;
        auto report = galois::forEach(w.initialTasks(), w.op(), cfg);
        return std::tuple(report.traceDigest, report.rounds,
                          report.committed, w.total());
    };
    for (const bool continuation : {true, false}) {
        const auto one = run(1, continuation);
        for (const unsigned threads : {2u, 4u})
            EXPECT_EQ(run(threads, continuation), one)
                << threads << " " << continuation;
    }
}

// ---------------------------------------------------------------------
// Additional executor edge cases
// ---------------------------------------------------------------------

TEST(Executors, ZeroNeighborhoodTasksRun)
{
    // Tasks that acquire nothing are trivially independent everywhere.
    // Side effects still belong after the failsafe point: the DIG
    // inspect phase re-executes the prefix, so effects placed before
    // tryCautiousPoint() must be idempotent (here: none).
    for (Exec exec : {Exec::Serial, Exec::NonDet, Exec::Det}) {
        std::atomic<int> count{0};
        std::vector<int> init(500);
        for (int i = 0; i < 500; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = exec;
        cfg.threads = 4;
        auto report = galois::forEach(
            init,
            [&](int&, galois::Context<int>& ctx) {
                if (ctx.tryCautiousPoint())
                    return;
                count.fetch_add(1);
            },
            cfg);
        EXPECT_EQ(count.load(), 500);
        EXPECT_EQ(report.committed, 500u);
        EXPECT_EQ(report.aborted, 0u);
    }
}

TEST(Executors, RepeatedAcquireOfSameLocation)
{
    // Acquiring the same location many times must not blow up the
    // neighborhood or double-release.
    std::vector<Lockable> locks(4);
    std::vector<std::int64_t> cells(4, 0);
    std::vector<std::uint32_t> init(1000);
    for (std::uint32_t i = 0; i < 1000; ++i)
        init[i] = i;
    for (Exec exec : {Exec::NonDet, Exec::Det}) {
        Config cfg;
        cfg.exec = exec;
        cfg.threads = 4;
        auto report = galois::forEach(
            init,
            [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
                for (int rep = 0; rep < 5; ++rep)
                    ctx.acquire(locks[i % 4]);
                if (ctx.tryCautiousPoint())
                    return;
                cells[i % 4] += 1;
            },
            cfg);
        EXPECT_EQ(report.committed, 1000u);
    }
    // Both executors ran: 1000 increments each.
    EXPECT_EQ(cells[0] + cells[1] + cells[2] + cells[3], 2000);
}

TEST(DetExecutor, DeepGenerationChains)
{
    // A chain of single-child tasks: generation count equals the depth.
    std::vector<Lockable> locks(1);
    std::vector<std::uint32_t> init{0};
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 4;
    constexpr std::uint32_t kDepth = 64;
    auto report = galois::forEach(
        init,
        [&](std::uint32_t& d, galois::Context<std::uint32_t>& ctx) {
            ctx.acquire(locks[0]);
            if (ctx.tryCautiousPoint())
                return;
            if (d + 1 < kDepth)
                ctx.push(d + 1);
        },
        cfg);
    EXPECT_EQ(report.committed, kDepth);
    EXPECT_EQ(report.generations, kDepth);
}

TEST(DetExecutor, WideFanOutOfChildren)
{
    // One task creates 10k children; ids must be assigned to all and
    // every child must commit exactly once.
    std::vector<Lockable> locks(64);
    std::atomic<std::uint64_t> seen{0};
    std::vector<std::uint32_t> init{~0u};
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = 4;
    auto report = galois::forEach(
        init,
        [&](std::uint32_t& v, galois::Context<std::uint32_t>& ctx) {
            if (v == ~0u) {
                if (ctx.tryCautiousPoint())
                    return;
                for (std::uint32_t c = 0; c < 10000; ++c)
                    ctx.push(c);
            } else {
                ctx.acquire(locks[v % 64]);
                if (ctx.tryCautiousPoint())
                    return;
                seen.fetch_add(v, std::memory_order_relaxed);
            }
        },
        cfg);
    EXPECT_EQ(report.committed, 10001u);
    EXPECT_EQ(seen.load(), 9999ull * 10000 / 2);
}

// ---------------------------------------------------------------------
// Barrier edge cases: the completion-bearing wait() is the spine of the
// fused round protocol, and its corners (single participant, throwing
// completion, reinit to a degraded width) are exactly where a sense-
// reversal barrier can rot silently. The schedule-space model checker
// (detmc) certifies the 2-3 thread interleavings; these tests pin the
// degenerate widths it does not model.
// ---------------------------------------------------------------------

TEST(Barrier, SingleParticipantRunsCompletionInline)
{
    // A 1-thread pool degenerates every rendezvous to a function call:
    // the sole arrival is always the last arrival, so the completion
    // must run synchronously, once per epoch, and never block.
    galois::support::Barrier bar(1);
    unsigned completions = 0;
    for (unsigned epoch = 0; epoch < 3; ++epoch) {
        bar.wait([&] { ++completions; });
        EXPECT_EQ(completions, epoch + 1);
        bar.wait(); // plain rendezvous must also pass straight through
    }
    EXPECT_EQ(completions, 3u);
}

TEST(Barrier, ThrowingCompletionPropagatesAndReinitRestores)
{
    // The contract says completions must not throw (a throwing
    // completion strands parked peers), so RoundEngine contains
    // exceptions in its serial sections. With a single participant
    // there are no peers to strand: the exception surfaces to the
    // caller, the barrier is left mid-epoch, and reinit() — the
    // documented recovery point — must restore a usable barrier.
    galois::support::Barrier bar(1);
    EXPECT_THROW(bar.wait([] { throw std::runtime_error("serial step"); }),
                 std::runtime_error);
    bar.reinit(1);
    unsigned completions = 0;
    bar.wait([&] { ++completions; });
    EXPECT_EQ(completions, 1u);
}

TEST(Barrier, ReinitToDegradedWidthIsReusable)
{
    // A pool that loses workers mid-experiment (failpoint-degraded
    // runs) re-arms the barrier narrower: 4 participants, then
    // reinit(2). Epochs at both widths must complete, and every epoch's
    // completion must observe all of its width's arrivals.
    galois::support::Barrier bar(4);
    std::atomic<unsigned> arrivals{0};
    std::vector<unsigned> snapshots;
    galois::support::ThreadPool::get().run(4, [&](unsigned) {
        for (unsigned epoch = 0; epoch < 2; ++epoch) {
            arrivals.fetch_add(1, std::memory_order_relaxed);
            bar.wait([&] {
                snapshots.push_back(
                    arrivals.load(std::memory_order_relaxed));
            });
        }
    });
    bar.reinit(2);
    galois::support::ThreadPool::get().run(2, [&](unsigned) {
        arrivals.fetch_add(1, std::memory_order_relaxed);
        bar.wait([&] {
            snapshots.push_back(
                arrivals.load(std::memory_order_relaxed));
        });
    });
    // Completions ran once per epoch and saw every arrival of their
    // epoch: 4, then 8, then 8 + 2.
    ASSERT_EQ(snapshots.size(), 3u);
    EXPECT_EQ(snapshots[0], 4u);
    EXPECT_EQ(snapshots[1], 8u);
    EXPECT_EQ(snapshots[2], 10u);
}
