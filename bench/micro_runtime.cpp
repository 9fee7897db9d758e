/**
 * @file
 * Microbenchmarks (google-benchmark) for the runtime primitives that the
 * paper's overhead analysis (Section 3.4) attributes costs to: mark
 * acquisition, writeMarksMax, barriers, worklist operations, and the
 * per-task overhead of each executor on trivial tasks.
 *
 * These quantify the "deterministic scheduler executes many more
 * instructions" claim at the primitive level, complementing the
 * end-to-end figures.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "galois/galois.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "runtime/conflict.h"
#include "runtime/task_store.h"
#include "runtime/worklist.h"
#include "support/barrier.h"
#include "support/failpoint.h"

using namespace galois;

namespace {

void
BM_MarkAcquireRelease(benchmark::State& state)
{
    runtime::Lockable lock;
    runtime::MarkOwner owner;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lock.tryAcquire(&owner));
        lock.releaseIfOwner(&owner);
    }
}
BENCHMARK(BM_MarkAcquireRelease);

void
BM_MarkMax(benchmark::State& state)
{
    runtime::Lockable lock;
    runtime::DetRecordBase a, b;
    a.id = 1;
    b.id = 2;
    for (auto _ : state) {
        runtime::MarkOwner* displaced = nullptr;
        benchmark::DoNotOptimize(lock.markMax(&a, displaced));
        benchmark::DoNotOptimize(lock.markMax(&b, displaced));
        lock.forceRelease();
    }
}
BENCHMARK(BM_MarkMax);

/**
 * Mark-acquisition protocols, one round of 256 tasks x 4 locations with
 * overlap. Single: the eager protocol — one writeMarksMax CAS per
 * acquire, losers flagged as they are displaced. Batched: the batched
 * protocol — acquires append to a collection lane, one serial id-order
 * fold resolves every conflict with plain stores (runtime/conflict.h),
 * then each task releases the marks the fold installed for it
 * (releaseHeldMarks: a load and a plain store per held mark). Same interference graph, same
 * final flags; the difference is pure protocol cost.
 */
constexpr int kMarkTasks = 256;
constexpr int kMarkLocs = 4; //!< acquires per task
constexpr int kMarkTable = 512;

inline runtime::Lockable&
markBenchLock(std::vector<runtime::Lockable>& locks, int t, int j)
{
    return locks[static_cast<std::size_t>(t * 7 + j * 131) % kMarkTable];
}

void
BM_MarkAcquireSingle(benchmark::State& state)
{
    std::vector<runtime::Lockable> locks(kMarkTable);
    std::vector<runtime::DetRecordBase> recs(kMarkTasks);
    for (int t = 0; t < kMarkTasks; ++t)
        recs[t].id = static_cast<std::uint64_t>(t) + 1;
    for (auto _ : state) {
        for (int t = 0; t < kMarkTasks; ++t) {
            for (int j = 0; j < kMarkLocs; ++j) {
                runtime::MarkOwner* displaced = nullptr;
                runtime::Lockable& l = markBenchLock(locks, t, j);
                if (l.markMax(&recs[t], displaced)) {
                    if (displaced != nullptr)
                        static_cast<runtime::DetRecordBase*>(displaced)
                            ->notSelected.store(true,
                                                std::memory_order_release);
                } else {
                    recs[t].notSelected.store(true,
                                              std::memory_order_release);
                }
            }
        }
        for (runtime::Lockable& l : locks)
            l.forceRelease();
        for (runtime::DetRecordBase& r : recs)
            r.notSelected.store(false, std::memory_order_relaxed);
    }
    state.SetItemsProcessed(state.iterations() * kMarkTasks * kMarkLocs);
}
BENCHMARK(BM_MarkAcquireSingle);

/** Task records with fixed kMarkLocs-entry spans, for the batched
 *  protocol's fold and release. */
struct MarkBenchStore
{
    std::vector<runtime::DetRecordBase>& recs;
    runtime::DetRecordBase* record(std::uint32_t slot) { return &recs[slot]; }
    runtime::AcquireSpan
    span(std::uint32_t slot) const
    {
        return {slot * kMarkLocs, kMarkLocs};
    }
};

void
BM_MarkAcquireBatched(benchmark::State& state)
{
    std::vector<runtime::Lockable> locks(kMarkTable);
    std::vector<runtime::DetRecordBase> recs(kMarkTasks);
    std::vector<std::uint32_t> slots(kMarkTasks);
    for (int t = 0; t < kMarkTasks; ++t) {
        recs[t].id = static_cast<std::uint64_t>(t) + 1;
        slots[t] = static_cast<std::uint32_t>(t);
    }
    MarkBenchStore store{recs};
    std::vector<runtime::Lockable*> lane;
    lane.reserve(kMarkTasks * kMarkLocs);
    for (auto _ : state) {
        // Inspect: collect (what UserContext::acquire does per acquire).
        lane.clear();
        for (int t = 0; t < kMarkTasks; ++t)
            for (int j = 0; j < kMarkLocs; ++j)
                lane.push_back(&markBenchLock(locks, t, j));
        // Fold: claim in id order with plain stores.
        runtime::foldSliceClaims(store, slots, 0, slots.size(), lane.data());
        // Select: owner release, reset flags for the next round.
        for (int t = 0; t < kMarkTasks; ++t)
            runtime::releaseHeldMarks(&recs[t], lane.data() + t * kMarkLocs,
                                      kMarkLocs);
        for (runtime::DetRecordBase& r : recs)
            r.notSelected.store(false, std::memory_order_relaxed);
    }
    state.SetItemsProcessed(state.iterations() * kMarkTasks * kMarkLocs);
}
BENCHMARK(BM_MarkAcquireBatched);

void
BM_WorklistPushPop(benchmark::State& state)
{
    runtime::ChunkedWorklist<int> wl;
    for (auto _ : state) {
        wl.push(7);
        benchmark::DoNotOptimize(wl.pop());
    }
}
BENCHMARK(BM_WorklistPushPop);

void
BM_FailpointDisarmed(benchmark::State& state)
{
    // The cost every FAILPOINT() site pays when no plan is armed — the
    // common case on every hot path (task inspect, commit, abort). Must
    // stay a single relaxed load + branch; the acceptance bar for the
    // fault-injection harness is <2% on the executor benchmarks below.
    failpoints::clearAll();
    std::uint64_t k = 0;
    for (auto _ : state)
        FAILPOINT("bench.disarmed", k++);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointDisarmed);

void
BM_FailpointArmedMiss(benchmark::State& state)
{
    // Worst case while a plan is armed somewhere: every site takes the
    // registry lookup, here for a site whose plan never matches.
    failpoints::set("bench.other", support::FailPlan::throwAt(0));
    std::uint64_t k = 1;
    for (auto _ : state)
        FAILPOINT("bench.other", k++);
    failpoints::clearAll();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointArmedMiss);

void
BM_BarrierRoundTrip(benchmark::State& state)
{
    // Single-participant barrier: measures the barrier bookkeeping that
    // every deterministic round pays three times.
    support::Barrier barrier(1);
    for (auto _ : state)
        barrier.wait();
}
BENCHMARK(BM_BarrierRoundTrip);

void
BM_CheckedDataAccess(benchmark::State& state)
{
    // The graph accessor path the determinism sanitizer instruments
    // (DETSAN_ACCESS in CsrGraph::data). Compare a DETGALOIS_DETSAN=OFF
    // build against an ON one to price the shadow-access check; in the
    // OFF build the macro expands to nothing, so this must match a plain
    // vector access — the sanitizer's zero-overhead-when-off bar.
    const graph::Node n = 1024;
    graph::CsrGraph<std::uint32_t> g(
        n, graph::randomKOut(n, 4, /*seed=*/42, /*symmetric=*/false));
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (graph::Node v = 0; v < n; ++v)
            sum += g.data(v);
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CheckedDataAccess);

#if defined(DETGALOIS_DETSAN)
void
BM_CheckedDataAccessInTask(benchmark::State& state)
{
    // Same accessor, but inside a task scope holding a 16-location
    // neighborhood — the full check: TLS load, gate load, and the linear
    // scan of the declared set. Only meaningful in instrumented builds.
    const graph::Node n = 16;
    graph::CsrGraph<std::uint32_t> g(
        n, graph::randomKOut(n, 4, /*seed=*/42, /*symmetric=*/false));
    galois::analysis::beginTask(1, "bench");
    for (graph::Node v = 0; v < n; ++v)
        galois::analysis::seedAcquire(&g.lock(v));
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (graph::Node v = 0; v < n; ++v)
            sum += g.data(v);
    }
    galois::analysis::endTask();
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CheckedDataAccessInTask);
#endif

void
BM_DetSanValueChannel(benchmark::State& state)
{
    // The id-assignment value channel of the environment audit
    // (DETSAN_VALUE in IdService::assign). In a DETGALOIS_DETSAN=OFF
    // build the macro expands to ((void)0), so this loop must price
    // exactly like the raw key reads — the audit's zero-overhead-
    // when-off bar (DESIGN.md section 8). In an ON build it pays the
    // gate load plus the taint-registry lookup per value.
    std::vector<std::uint64_t> keys(1024);
    for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = i * 0x9e3779b97f4a7c15ULL;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (const std::uint64_t k : keys) {
            DETSAN_VALUE("bench.key", k);
            sum += k;
        }
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_DetSanValueChannel);

#if defined(DETGALOIS_DETSAN)
void
BM_DetSanValueChannelTainted(benchmark::State& state)
{
    // Worst case in an instrumented build: every checked value IS
    // tainted, so each iteration records (and deduplicates) an EnvLeak.
    // Prices the violation path, not the clean path.
    galois::analysis::configure(galois::analysis::DetSanOptions{});
    const std::uint64_t t = DETSAN_TAINT_CLOCK(0xbadc10c5ULL);
    for (auto _ : state)
        DETSAN_VALUE("bench.tainted", t);
    galois::analysis::configure(galois::analysis::DetSanOptions{});
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetSanValueChannelTainted);
#endif

/** Per-task executor overhead: N trivial independent tasks. */
void
executorOverhead(benchmark::State& state, Exec exec, unsigned threads)
{
    const int n = 16384;
    std::vector<Lockable> locks(n);
    std::vector<std::uint32_t> init(n);
    for (int i = 0; i < n; ++i)
        init[i] = static_cast<std::uint32_t>(i);
    Config cfg;
    cfg.exec = exec;
    cfg.threads = threads;
    for (auto _ : state) {
        auto report = forEach(
            init,
            [&](std::uint32_t& i, Context<std::uint32_t>& ctx) {
                ctx.acquire(locks[i]);
                if (ctx.tryCautiousPoint())
                    return;
            },
            cfg);
        benchmark::DoNotOptimize(report.committed);
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void
BM_ExecutorSerial(benchmark::State& state)
{
    executorOverhead(state, Exec::Serial, 1);
}
BENCHMARK(BM_ExecutorSerial)->Unit(benchmark::kMillisecond);

void
BM_ExecutorNonDet(benchmark::State& state)
{
    executorOverhead(state, Exec::NonDet,
                     static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_ExecutorNonDet)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void
BM_ExecutorDet(benchmark::State& state)
{
    executorOverhead(state, Exec::Det,
                     static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_ExecutorDet)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
