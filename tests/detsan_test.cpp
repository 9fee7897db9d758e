/**
 * @file
 * Determinism-sanitizer tests.
 *
 * This target is the one place in the default build where the checking
 * macro is on (`target_compile_definitions(detsan_test PRIVATE
 * DETGALOIS_DETSAN=1)`), so plain `ctest` exercises the sanitizer without
 * a second build tree. ODR note: everything the macro changes lives in
 * header templates instantiated inside this translation unit; the linked
 * libraries (dg_runtime, dg_support, dg_analysis) contain no instantiation
 * of the executors, so instrumented and uninstrumented copies never meet.
 *
 * What is proven here, per the issue's acceptance bar:
 *  - a deliberately racy operator (write without a matching acquire) is
 *    caught at the right source site;
 *  - a non-cautious operator (acquire after the first write, and acquire
 *    after tryCautiousPoint()) is caught;
 *  - the structured report is deterministic: byte-identical across
 *    1/2/4/8 threads under the deterministic executor;
 *  - the per-round trace digest is thread-count invariant (portability
 *    as a one-line assertion);
 *  - the runtime knobs (disable, failFast, maxViolations) behave.
 */

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/detsan.h"
#include "galois/galois.h"

namespace {

namespace detsan = galois::analysis;
using detsan::DetSanOptions;
using detsan::DetSanReport;
using detsan::Violation;
using detsan::ViolationKind;

/** One shared abstract location: a lock guarding a counter. */
struct Cell
{
    galois::Lockable lock;
    int value = 0;
};

constexpr std::size_t kCells = 32;
constexpr int kTasks = 8;

/** Source line of the deliberate violation, captured by each operator. */
int g_violationLine = 0;

bool
sameViolation(const Violation& a, const Violation& b)
{
    return a.kind == b.kind && a.taskId == b.taskId &&
           a.generation == b.generation && a.round == b.round &&
           std::strcmp(a.phase, b.phase) == 0 &&
           std::strcmp(a.file, b.file) == 0 && a.line == b.line &&
           a.count == b.count && std::strcmp(a.channel, b.channel) == 0 &&
           std::strcmp(a.source, b.source) == 0;
}

bool
sameReport(const DetSanReport& a, const DetSanReport& b)
{
    if (a.truncated != b.truncated || a.taintOverflow != b.taintOverflow ||
        a.violations.size() != b.violations.size())
        return false;
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
        if (!sameViolation(a.violations[i], b.violations[i]))
            return false;
    }
    return true;
}

class DetSanTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Fresh defaults; configure() also drops any violations a prior
        // test left in the process-wide collector.
        detsan::configure(DetSanOptions{});
        for (Cell& c : cells_)
            c.value = 0;
    }

    void TearDown() override { detsan::configure(DetSanOptions{}); }

    galois::RunReport
    run(galois::Exec exec, unsigned threads, auto&& op)
    {
        std::vector<int> initial;
        for (int i = 0; i < kTasks; ++i)
            initial.push_back(i);
        galois::Config cfg;
        cfg.exec = exec;
        cfg.threads = threads;
        return galois::forEach(initial, op, cfg);
    }

    std::array<Cell, kCells> cells_;
};

// ---------------------------------------------------------------------
// Clean operators produce clean reports (no false positives).
// ---------------------------------------------------------------------

TEST_F(DetSanTest, CleanCautiousOperatorReportsNothing)
{
    auto op = [this](int i, galois::Context<int>& ctx) {
        Cell& a = cells_[static_cast<std::size_t>(i)];
        Cell& b = cells_[static_cast<std::size_t>(i) + kTasks];
        ctx.acquire(a.lock);
        ctx.acquire(b.lock);
        EXPECT_TRUE(detsan::taskHolds(&a.lock));
        if (ctx.tryCautiousPoint())
            return;
        DETSAN_WRITE(a.lock);
        a.value += 1;
        DETSAN_WRITE(b.lock);
        b.value += 1;
    };
    for (galois::Exec exec :
         {galois::Exec::Serial, galois::Exec::NonDet, galois::Exec::Det}) {
        detsan::resetReport();
        run(exec, 4, op);
        const DetSanReport report = detsan::takeReport();
        EXPECT_TRUE(report.clean()) << report.toString();
    }
}

// ---------------------------------------------------------------------
// Racy operator: a write with no matching acquire is caught at the site.
// ---------------------------------------------------------------------

TEST_F(DetSanTest, UnmarkedWriteCaughtAtTheRightSite)
{
    auto racy = [this](int i, galois::Context<int>& ctx) {
        Cell& own = cells_[static_cast<std::size_t>(i)];
        Cell& other = cells_[static_cast<std::size_t>(i) + kTasks];
        ctx.acquire(own.lock);
        if (ctx.tryCautiousPoint())
            return;
        DETSAN_WRITE(own.lock); // marked: legal
        own.value += 1;
        // The bug under test: `other` was never acquired. (Only the
        // shadow access is racy; the data write goes to the task's own
        // cell so the test itself stays race-free.)
        g_violationLine = __LINE__ + 1;
        DETSAN_WRITE(other.lock);
    };

    run(galois::Exec::Serial, 1, racy);
    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    const Violation& v = report.violations.front();
    EXPECT_EQ(v.kind, ViolationKind::UnmarkedWrite);
    EXPECT_EQ(v.line, g_violationLine);
    EXPECT_NE(std::strstr(v.file, "detsan_test.cpp"), nullptr) << v.file;
    EXPECT_STREQ(v.phase, "serial");
    EXPECT_EQ(v.count, static_cast<std::uint64_t>(kTasks));
}

TEST_F(DetSanTest, UnmarkedWriteReportIdenticalAcrossThreadCounts)
{
    auto racy = [this](int i, galois::Context<int>& ctx) {
        Cell& own = cells_[static_cast<std::size_t>(i)];
        Cell& other = cells_[static_cast<std::size_t>(i) + kTasks];
        ctx.acquire(own.lock);
        if (ctx.tryCautiousPoint())
            return;
        DETSAN_WRITE(own.lock);
        own.value += 1;
        DETSAN_WRITE(other.lock); // never acquired
    };

    std::vector<DetSanReport> reports;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        detsan::resetReport();
        run(galois::Exec::Det, threads, racy);
        reports.push_back(detsan::takeReport());
    }
    ASSERT_FALSE(reports.front().clean());
    // One violation entry per task (the racy site runs once, in the
    // select phase of the task's commit round), every field identical
    // on every thread count — including task ids, rounds and counts.
    EXPECT_EQ(reports.front().violations.size(),
              static_cast<std::size_t>(kTasks));
    for (std::size_t i = 1; i < reports.size(); ++i) {
        EXPECT_TRUE(sameReport(reports.front(), reports[i]))
            << "threads=1:\n" << reports.front().toString()
            << "\nother:\n" << reports[i].toString();
    }
    for (const Violation& v : reports.front().violations)
        EXPECT_EQ(v.kind, ViolationKind::UnmarkedWrite);
}

// ---------------------------------------------------------------------
// Non-cautious operators.
// ---------------------------------------------------------------------

TEST_F(DetSanTest, AcquireAfterWriteCaught)
{
    auto nonCautious = [this](int i, galois::Context<int>& ctx) {
        Cell& own = cells_[static_cast<std::size_t>(i)];
        Cell& late = cells_[static_cast<std::size_t>(i) + kTasks];
        ctx.acquire(own.lock);
        g_violationLine = __LINE__ + 1;
        DETSAN_WRITE(own.lock); // first write...
        own.value += 1;
        ctx.acquire(late.lock); // ...then another acquire: not cautious
        if (ctx.tryCautiousPoint())
            return;
    };

    run(galois::Exec::Serial, 1, nonCautious);
    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    const Violation& v = report.violations.front();
    EXPECT_EQ(v.kind, ViolationKind::AcquireAfterWrite);
    // The acquire() call itself carries no source location; the report
    // points at the access that ended the acquire prefix instead.
    EXPECT_EQ(v.line, g_violationLine);
    EXPECT_NE(std::strstr(v.file, "detsan_test.cpp"), nullptr) << v.file;
    EXPECT_EQ(v.count, static_cast<std::uint64_t>(kTasks));
}

TEST_F(DetSanTest, AcquireAfterFailsafeCaught)
{
    auto nonCautious = [this](int i, galois::Context<int>& ctx) {
        Cell& own = cells_[static_cast<std::size_t>(i)];
        Cell& late = cells_[static_cast<std::size_t>(i) + kTasks];
        ctx.acquire(own.lock);
        if (ctx.tryCautiousPoint())
            return;
        ctx.acquire(late.lock); // after the declared failsafe point
        DETSAN_WRITE(own.lock);
        own.value += 1;
    };

    run(galois::Exec::Serial, 1, nonCautious);
    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    EXPECT_EQ(report.violations.front().kind,
              ViolationKind::AcquireAfterFailsafe);
    EXPECT_EQ(report.violations.front().count,
              static_cast<std::uint64_t>(kTasks));
}

// ---------------------------------------------------------------------
// Trace digest: the paper's portability property as one assertion.
// ---------------------------------------------------------------------

TEST_F(DetSanTest, TraceDigestThreadCountInvariantUnderDet)
{
    // Chain of overlapping neighborhoods so selection takes several
    // rounds and the digest folds a non-trivial schedule.
    auto op = [this](int i, galois::Context<int>& ctx) {
        Cell& a = cells_[static_cast<std::size_t>(i)];
        Cell& b = cells_[static_cast<std::size_t>(i + 1)];
        ctx.acquire(a.lock);
        ctx.acquire(b.lock);
        if (ctx.tryCautiousPoint())
            return;
        DETSAN_WRITE(a.lock);
        a.value += 1;
        DETSAN_WRITE(b.lock);
        b.value += 1;
    };

    const galois::RunReport r1 = run(galois::Exec::Det, 1, op);
    ASSERT_NE(r1.traceDigest, 0u);
    for (unsigned threads : {2u, 4u, 8u}) {
        const galois::RunReport r = run(galois::Exec::Det, threads, op);
        EXPECT_EQ(r.traceDigest, r1.traceDigest) << "threads=" << threads;
        EXPECT_EQ(r.committed, r1.committed);
    }
    // The other executors make no schedule promise and leave it 0.
    EXPECT_EQ(run(galois::Exec::Serial, 1, op).traceDigest, 0u);
    EXPECT_EQ(run(galois::Exec::NonDet, 4, op).traceDigest, 0u);
}

// ---------------------------------------------------------------------
// Hook-level semantics and runtime knobs.
// ---------------------------------------------------------------------

TEST_F(DetSanTest, MutableAccessRequiresMarkButDoesNotEndPrefix)
{
    galois::Lockable a;
    galois::Lockable b;
    detsan::beginTask(1, "test");
    detsan::noteAcquire(&a);
    // DETSAN_ACCESS models a non-const accessor: the mark is required,
    // but the access is not proof of a write, so the acquire prefix is
    // still open and a later acquire is legal.
    DETSAN_ACCESS(b); // unmarked: one violation
    detsan::noteAcquire(&b); // must NOT be acquire-after-write
    DETSAN_ACCESS(b); // now marked: no violation
    detsan::endTask();

    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    EXPECT_EQ(report.violations.front().kind, ViolationKind::UnmarkedAccess);
}

TEST_F(DetSanTest, ReadOfUnmarkedLocationCaught)
{
    galois::Lockable a;
    galois::Lockable b;
    detsan::beginTask(2, "test");
    detsan::noteAcquire(&a);
    DETSAN_READ(a); // marked: fine
    DETSAN_READ(b); // unmarked
    detsan::endTask();

    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    EXPECT_EQ(report.violations.front().kind, ViolationKind::UnmarkedRead);
    EXPECT_EQ(report.violations.front().taskId, 2u);
}

TEST_F(DetSanTest, AccessesOutsideTaskScopeAreNeverChecked)
{
    galois::Lockable a;
    DETSAN_WRITE(a); // no active task: setup/validation code is exempt
    EXPECT_TRUE(detsan::takeReport().clean());
}

TEST_F(DetSanTest, SeededAcquiresSatisfyTheChecker)
{
    // Models the DIG commit resume: the prefix's acquires are seeded
    // from the task record instead of re-observed.
    galois::Lockable a;
    detsan::beginTask(3, "commit");
    detsan::seedAcquire(&a);
    EXPECT_TRUE(detsan::taskHolds(&a));
    DETSAN_WRITE(a);
    detsan::endTask();
    EXPECT_TRUE(detsan::takeReport().clean());
}

TEST_F(DetSanTest, DisabledSanitizerRecordsNothing)
{
    DetSanOptions off;
    off.enabled = false;
    detsan::configure(off);

    galois::Lockable a;
    detsan::beginTask(4, "test");
    DETSAN_WRITE(a);
    detsan::noteAcquire(&a); // would be acquire-after-write if enabled
    detsan::endTask();
    EXPECT_TRUE(detsan::takeReport().clean());
}

TEST_F(DetSanTest, FailFastThrowsAtTheViolatingAccess)
{
    DetSanOptions opts;
    opts.failFast = true;
    detsan::configure(opts);

    galois::Lockable a;
    detsan::beginTask(5, "test");
    EXPECT_THROW(DETSAN_WRITE(a), detsan::DetSanError);
    detsan::endTask();
}

// ---------------------------------------------------------------------
// v2: environment-taint value channels (EnvLeak).
// ---------------------------------------------------------------------

TEST_F(DetSanTest, TaintedAddressReachingAChannelIsAnEnvLeak)
{
    int anchor = 0;
    const std::uint64_t key = DETSAN_TAINT_ADDRESS(&anchor);
    EXPECT_TRUE(detsan::valueTainted(key));
    g_violationLine = __LINE__ + 1;
    DETSAN_VALUE("test.sort-key", key);

    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    const Violation& v = report.violations.front();
    EXPECT_EQ(v.kind, ViolationKind::EnvLeak);
    EXPECT_STREQ(v.channel, "test.sort-key");
    EXPECT_STREQ(v.source, "address");
    EXPECT_EQ(v.line, g_violationLine);
    EXPECT_NE(std::strstr(v.file, "detsan_test.cpp"), nullptr) << v.file;
    EXPECT_EQ(v.taskId, 0u); // channels are legal outside task scope
    // The rendered line names the channel and the origin.
    EXPECT_NE(v.toString().find("test.sort-key"), std::string::npos);
    EXPECT_NE(v.toString().find("address"), std::string::npos);
}

TEST_F(DetSanTest, EveryTaintSourceIsNamedOnTheReport)
{
    DETSAN_VALUE("test.clock", DETSAN_TAINT_CLOCK(101));
    DETSAN_VALUE("test.hash", DETSAN_TAINT_HASH_SEED(202));
    DETSAN_VALUE("test.env", DETSAN_TAINT_ENV(303));

    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 3u) << report.toString();
    bool clock = false, hash = false, env = false;
    for (const Violation& v : report.violations) {
        EXPECT_EQ(v.kind, ViolationKind::EnvLeak);
        clock |= std::strcmp(v.source, "clock") == 0;
        hash |= std::strcmp(v.source, "hash-seed") == 0;
        env |= std::strcmp(v.source, "env") == 0;
    }
    EXPECT_TRUE(clock && hash && env) << report.toString();
}

TEST_F(DetSanTest, UntaintedValuesPassChannelsSilently)
{
    for (std::uint64_t v = 0; v < 64; ++v)
        DETSAN_VALUE("test.id", v);
    EXPECT_TRUE(detsan::takeReport().clean());
}

TEST_F(DetSanTest, ValueChecksCarryTheActiveTaskLabels)
{
    const std::uint64_t t = DETSAN_TAINT_CLOCK(404);
    detsan::setRound(2, 5);
    detsan::beginTask(7, "commit");
    DETSAN_VALUE("test.key", t);
    detsan::endTask();

    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    const Violation& v = report.violations.front();
    EXPECT_EQ(v.taskId, 7u);
    EXPECT_EQ(v.generation, 2u);
    EXPECT_EQ(v.round, 5u);
    EXPECT_STREQ(v.phase, "commit");
}

TEST_F(DetSanTest, RepeatedLeaksDeduplicateWithCounts)
{
    const std::uint64_t t = DETSAN_TAINT_ENV(505);
    for (int i = 0; i < 5; ++i)
        DETSAN_VALUE("test.repeat", t);

    const DetSanReport report = detsan::takeReport();
    ASSERT_EQ(report.violations.size(), 1u) << report.toString();
    EXPECT_EQ(report.violations.front().count, 5u);
}

TEST_F(DetSanTest, CheckValuesKnobDisablesTheChannel)
{
    DetSanOptions opts;
    opts.checkValues = false;
    detsan::configure(opts);

    const std::uint64_t t = DETSAN_TAINT_CLOCK(606);
    EXPECT_FALSE(detsan::valueTainted(t)); // registration is off too
    DETSAN_VALUE("test.key", t);
    EXPECT_TRUE(detsan::takeReport().clean());
}

TEST_F(DetSanTest, ClearedTaintsAreForgotten)
{
    const std::uint64_t t = DETSAN_TAINT_HASH_SEED(707);
    EXPECT_TRUE(detsan::valueTainted(t));
    detsan::clearTaints();
    EXPECT_FALSE(detsan::valueTainted(t));
    DETSAN_VALUE("test.key", t);
    EXPECT_TRUE(detsan::takeReport().clean());
}

TEST_F(DetSanTest, TaintRegistryOverflowIsFlagged)
{
    // The registry is a bounded checking-mode structure; exceeding the
    // cap must degrade visibly (report not clean), never silently.
    for (std::uint64_t i = 0; i < (1u << 16) + 8u; ++i)
        detsan::taintValue(detsan::TaintSource::Clock,
                           0xfeed0000'00000000ULL + i, __FILE__, __LINE__);
    const DetSanReport report = detsan::takeReport();
    EXPECT_TRUE(report.taintOverflow);
    EXPECT_FALSE(report.clean());
}

TEST_F(DetSanTest, ViolationCapMarksReportTruncated)
{
    DetSanOptions opts;
    opts.maxViolations = 2;
    detsan::configure(opts);

    galois::Lockable a;
    detsan::beginTask(6, "test");
    DETSAN_WRITE(a);
    DETSAN_READ(a);
    DETSAN_READ(a); // third event: dropped, report flagged
    detsan::endTask();

    const DetSanReport report = detsan::takeReport();
    EXPECT_TRUE(report.truncated);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.violations.size(), 2u);
}

} // namespace
