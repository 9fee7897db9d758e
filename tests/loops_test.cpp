/**
 * @file
 * Tests for the data-parallel companions (doAll, Reducible), the report
 * renderers, and executor failure injection: user exceptions must
 * propagate out of every executor exactly once and leave the thread pool
 * reusable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "galois/galois.h"
#include "galois/loops.h"
#include "runtime/report_io.h"

using namespace galois;

// ---------------------------------------------------------------------
// doAll
// ---------------------------------------------------------------------

TEST(DoAll, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        constexpr std::size_t n = 10007; // prime: uneven blocks
        std::vector<std::atomic<int>> hits(n);
        doAll(n, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(DoAll, EmptyAndSingleton)
{
    int calls = 0;
    doAll(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    doAll(1, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------
// Reducible
// ---------------------------------------------------------------------

TEST(Reducible, SumAcrossThreads)
{
    Reducible<long> sum;
    doAll(1000, 4, [&](std::size_t i) {
        sum.update(static_cast<long>(i));
    });
    EXPECT_EQ(sum.reduce(), 999L * 1000 / 2);
    // reduce() resets.
    EXPECT_EQ(sum.reduce(), 0L);
}

TEST(Reducible, MinMax)
{
    Reducible<int, MinOf<int>> lo(1 << 30);
    Reducible<int, MaxOf<int>> hi(-(1 << 30));
    doAll(512, 4, [&](std::size_t i) {
        lo.update(static_cast<int>(i) - 100);
        hi.update(static_cast<int>(i) - 100);
    });
    EXPECT_EQ(lo.reduce(), -100);
    EXPECT_EQ(hi.reduce(), 411);
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

TEST(ReportIo, PrintAndCsv)
{
    runtime::RunReport r;
    r.threads = 4;
    r.seconds = 0.125;
    r.committed = 1000;
    r.aborted = 50;
    r.rounds = 7;

    std::ostringstream os;
    runtime::printReport(os, r, "test-run");
    const std::string text = os.str();
    EXPECT_NE(text.find("test-run"), std::string::npos);
    EXPECT_NE(text.find("committed      : 1000"), std::string::npos);
    EXPECT_NE(text.find("rounds         : 7"), std::string::npos);

    const std::string row = runtime::reportCsvRow(r, "bfs");
    EXPECT_EQ(row.substr(0, 6), "bfs,4,");
    // Header and row have the same number of fields.
    const auto commas = [](const std::string& s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(runtime::reportCsvHeader()), commas(row));
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

namespace {

struct AppError : std::runtime_error
{
    AppError() : std::runtime_error("operator failure") {}
};

} // namespace

class ExecutorFailureInjection : public ::testing::TestWithParam<Exec>
{};

TEST_P(ExecutorFailureInjection, UserExceptionPropagatesAndPoolSurvives)
{
    std::vector<Lockable> locks(8);
    std::vector<int> init(100);
    for (int i = 0; i < 100; ++i)
        init[i] = i;

    Config cfg;
    cfg.exec = GetParam();
    cfg.threads = 4;

    EXPECT_THROW(
        forEach(
            init,
            [&](int& i, Context<int>& ctx) {
                ctx.acquire(locks[i % 8]);
                if (ctx.tryCautiousPoint())
                    return;
                if (i == 57)
                    throw AppError();
            },
            cfg),
        AppError);

    // The runtime must remain fully usable afterwards.
    std::atomic<int> done{0};
    auto report = forEach(
        init,
        [&](int& i, Context<int>& ctx) {
            ctx.acquire(locks[i % 8]);
            if (ctx.tryCautiousPoint())
                return;
            done.fetch_add(1);
        },
        cfg);
    EXPECT_EQ(report.committed, 100u);
    EXPECT_EQ(done.load(), 100);
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, ExecutorFailureInjection,
                         ::testing::Values(Exec::Serial, Exec::NonDet,
                                           Exec::Det));
