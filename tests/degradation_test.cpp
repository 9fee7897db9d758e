/**
 * @file
 * Graceful degradation when the thread pool cannot start its workers.
 *
 * This test runs in its own binary because the pool is a process-wide
 * singleton: worker creation happens exactly once, on first use. The
 * ctest registration arms DETGALOIS_FAILPOINTS=threadpool.spawn=throw@always
 * in the environment (see tests/CMakeLists.txt), which makes every
 * std::thread construction fail — the most hostile possible host. The
 * pool must fall back to serial execution (maxThreads() == 1,
 * degraded() == true) rather than crash, and every executor must still
 * run correctly at any requested thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "galois/galois.h"
#include "service/server.h"
#include "support/thread_pool.h"

using galois::Config;
using galois::Exec;
using galois::Lockable;

namespace {

std::uint64_t
runCells(Exec exec, unsigned threads)
{
    constexpr std::size_t kCells = 48;
    constexpr std::uint32_t kTasks = 1000;
    std::vector<std::int64_t> values(kCells, 1);
    std::vector<Lockable> locks(kCells);
    std::vector<std::uint32_t> init(kTasks);
    for (std::uint32_t i = 0; i < kTasks; ++i)
        init[i] = i;
    Config cfg;
    cfg.exec = exec;
    cfg.threads = threads;
    auto report = galois::forEach(
        init,
        [&](std::uint32_t& i, galois::Context<std::uint32_t>& ctx) {
            const std::size_t a = i % kCells;
            const std::size_t b = (std::size_t(i) * 7 + 3) % kCells;
            ctx.acquire(locks[a]);
            ctx.acquire(locks[b]);
            if (ctx.tryCautiousPoint())
                return;
            values[a] = values[a] * 3 + i + 1;
            values[b] = values[b] * 5 + 2 * (i + 1);
        },
        cfg);
    EXPECT_EQ(report.committed, kTasks);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::int64_t v : values) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(Degradation, EnvironmentPlanIsArmed)
{
    // Guard against running this binary without the ctest-provided
    // environment — the remaining assertions would be vacuous.
    const char* env = std::getenv("DETGALOIS_FAILPOINTS");
    ASSERT_NE(env, nullptr)
        << "run via ctest, or set "
           "DETGALOIS_FAILPOINTS=threadpool.spawn=throw@always";
}

TEST(Degradation, PoolFallsBackToSerialExecution)
{
    auto& pool = galois::support::ThreadPool::get();
    EXPECT_EQ(pool.maxThreads(), 1u);
    EXPECT_TRUE(pool.degraded());
}

TEST(Degradation, WatchdogTripsIdenticallyOnDegradedPool)
{
    // Same all-abort workload as resilience_test's
    // AllAbortLivelockTripsAtSameRoundOnEveryThreadCount (locks(4),
    // 24 tasks, watchdogRounds=5, baseline selection): on the degraded
    // pool the livelock watchdog must trip after exactly the same
    // number of rounds with the identical diagnostic it produces at
    // full width — the trip round and the stuck ids are schedule
    // facts, and the schedule does not know how many threads survived.
    constexpr std::uint64_t kWatchdog = 5;
    auto run = [&](unsigned threads) {
        std::vector<Lockable> locks(4);
        std::vector<std::uint32_t> init(24);
        for (std::uint32_t i = 0; i < 24; ++i)
            init[i] = i;
        Config cfg;
        cfg.exec = Exec::Det;
        cfg.threads = threads;
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
        EXPECT_EQ(committed, 0u) << threads << " requested threads";
        EXPECT_EQ(rounds, kWatchdog) << threads << " requested threads";
        return error;
    };
    const std::string ref = run(1);
    ASSERT_FALSE(ref.empty()) << "watchdog did not fire";
    EXPECT_NE(ref.find("progress watchdog"), std::string::npos);
    EXPECT_NE(ref.find("round " + std::to_string(kWatchdog)),
              std::string::npos)
        << ref;
    // Requested widths collapse to the one surviving thread, and the
    // diagnostic must not notice.
    EXPECT_EQ(run(4), ref);
    EXPECT_EQ(run(8), ref);
}

TEST(Degradation, ServiceJobsStillVerifyOnDegradedPool)
{
    // The resident service re-admits jobs at reduced parallelism when
    // the pool lost its workers; the receipts must still verify
    // (digest equality with any healthy host is pinned by the golden
    // digests — here we pin self-consistency across requested widths).
    galois::service::JobSpec spec;
    spec.id = "degraded";
    spec.app = "bfs";
    spec.n = 3000;
    spec.k = 4;
    spec.seed = 5;
    spec.exec = Exec::Det;
    spec.threads = 8; // clamped to the single surviving thread
    auto wide = galois::service::DetService::runInline(spec);
    ASSERT_EQ(wide.status, galois::service::JobStatus::Ok) << wide.error;
    spec.threads = 1;
    auto narrow = galois::service::DetService::runInline(spec);
    ASSERT_EQ(narrow.status, galois::service::JobStatus::Ok)
        << narrow.error;
    EXPECT_EQ(wide.digest, narrow.digest);
    EXPECT_NE(wide.digest, 0u);
}

TEST(Degradation, ExecutorsStillRunAtAnyRequestedThreadCount)
{
    // Executors clamp to maxThreads(): requesting 8 threads on the
    // degraded pool must complete — and, for the deterministic
    // executor, produce the same output it would anywhere else
    // (portability extends to crippled hosts).
    const std::uint64_t det1 = runCells(Exec::Det, 1);
    EXPECT_EQ(runCells(Exec::Det, 8), det1);
    EXPECT_EQ(runCells(Exec::Serial, 1), runCells(Exec::Serial, 8));
    (void)runCells(Exec::NonDet, 8); // completes, serializable
}

TEST(Degradation, DetResMatchesDetOnDegradedPool)
{
    // The reservation backend degrades the same way: any requested
    // width collapses to the surviving thread and the final state is
    // unchanged — and, because both deterministic backends resolve
    // conflicts in id order, it equals Exec::Det's final state even on
    // this crippled host.
    const std::uint64_t det1 = runCells(Exec::Det, 1);
    const std::uint64_t res1 = runCells(Exec::DetRes, 1);
    EXPECT_EQ(res1, det1);
    EXPECT_EQ(runCells(Exec::DetRes, 8), res1);
}

} // namespace
