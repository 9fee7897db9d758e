/**
 * @file
 * Tests for the machine-readable report emitters (runtime/report_io.h):
 * BENCH_results.json structure, chrome://tracing dump structure, JSON
 * string escaping, and the cost model of the Config::traceRounds knob —
 * off (the default) must leave RunReport::traceEvents empty, on must
 * produce a well-formed phase timeline. Also the bench harness's run
 * recorder (bench/harness.h), which collapses reps into the records
 * those emitters write.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "galois/galois.h"
#include "harness.h"
#include "runtime/report_io.h"

using namespace galois;

namespace {

/** Tiny cautious workload: enough tasks for several det rounds. */
struct Workload
{
    std::vector<runtime::Lockable> locks{64};
    std::vector<long> cells = std::vector<long>(64, 0);

    std::vector<int>
    tasks() const
    {
        std::vector<int> t;
        for (int i = 0; i < 400; ++i)
            t.push_back(i);
        return t;
    }

    auto
    op()
    {
        return [this](int& v, Context<int>& ctx) {
            ctx.acquire(locks[v % 64]);
            ctx.acquire(locks[(v * 7 + 3) % 64]);
            if (ctx.tryCautiousPoint())
                return;
            cells[v % 64] += v;
        };
    }
};

RunReport
runDet(bool trace, unsigned threads = 4)
{
    Workload w;
    Config cfg;
    cfg.exec = Exec::Det;
    cfg.threads = threads;
    cfg.traceRounds = trace;
    return forEach(w.tasks(), w.op(), cfg);
}

/** Count occurrences of a substring. */
std::size_t
countOf(const std::string& hay, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// Config::traceRounds cost model
// ---------------------------------------------------------------------

TEST(TraceRounds, OffByDefaultAndEmpty)
{
    const RunReport r = runDet(/*trace=*/false);
    EXPECT_TRUE(r.traceEvents.empty())
        << "knob off must not allocate any trace event";
    // The round trajectory is always collected (cheap, one sample per
    // round) — only the per-phase timeline is gated.
    EXPECT_EQ(r.roundTrace.size(), r.rounds);
}

TEST(TraceRounds, OnProducesWellFormedTimeline)
{
    const RunReport r = runDet(/*trace=*/true);
    ASSERT_GT(r.rounds, 0u);
    // Five phase spans per round, in protocol order: assemble, inspect,
    // fold, select, merge.
    ASSERT_EQ(r.traceEvents.size(), 5 * r.rounds);
    const TraceEvent::Phase order[5] = {
        TraceEvent::Phase::Assemble, TraceEvent::Phase::Inspect,
        TraceEvent::Phase::Fold, TraceEvent::Phase::Select,
        TraceEvent::Phase::Merge};
    double prev_end = 0.0;
    for (std::size_t i = 0; i < r.traceEvents.size(); ++i) {
        const TraceEvent& e = r.traceEvents[i];
        EXPECT_EQ(e.round, i / 5 + 1) << i;
        EXPECT_EQ(e.phase, order[i % 5]) << i;
        EXPECT_GE(e.startSeconds, prev_end) << i;
        EXPECT_GE(e.durationSeconds, 0.0) << i;
        prev_end = e.startSeconds;
    }
}

TEST(TraceRounds, SameScheduleWithAndWithoutTracing)
{
    const RunReport off = runDet(false);
    const RunReport on = runDet(true);
    EXPECT_EQ(on.traceDigest, off.traceDigest)
        << "tracing must be observation-only";
    EXPECT_EQ(on.rounds, off.rounds);
    EXPECT_EQ(on.committed, off.committed);
}

// ---------------------------------------------------------------------
// RunReport::merge
// ---------------------------------------------------------------------

TEST(RunReportMerge, SumsAppendsRebasesAndChainsDigests)
{
    auto make = [](std::uint64_t base, std::uint64_t digest) {
        RunReport r;
        r.committed = base + 1;
        r.aborted = base + 2;
        r.atomicOps = base + 3;
        r.pushed = base + 4;
        r.cacheAccesses = base + 5;
        r.cacheMisses = base + 6;
        r.backoffYields = base + 7;
        r.rounds = 2;
        r.generations = 1;
        r.traceDigest = digest;
        r.seconds = 0.5;
        r.threads = 2;
        r.phases.assembleSeconds = 0.01;
        r.phases.inspectSeconds = 0.02;
        r.phases.foldSeconds = 0.03;
        r.phases.selectSeconds = 0.04;
        r.phases.mergeSeconds = 0.05;
        r.roundTrace = {RoundSample{base, 4, 3}, RoundSample{base, 1, 1}};
        r.traceEvents = {
            TraceEvent{1, TraceEvent::Phase::Inspect, 0.1, 0.1},
            TraceEvent{2, TraceEvent::Phase::Merge, 0.3, 0.1}};
        return r;
    };

    RunReport a = make(10, 0xaaaa);
    a.merge(make(20, 0xbbbb));
    EXPECT_EQ(a.committed, 11u + 21u);
    EXPECT_EQ(a.aborted, 12u + 22u);
    EXPECT_EQ(a.atomicOps, 13u + 23u);
    EXPECT_EQ(a.pushed, 14u + 24u);
    EXPECT_EQ(a.cacheAccesses, 15u + 25u);
    EXPECT_EQ(a.cacheMisses, 16u + 26u);
    EXPECT_EQ(a.backoffYields, 17u + 27u);
    EXPECT_EQ(a.rounds, 4u);
    EXPECT_EQ(a.generations, 2u);
    EXPECT_EQ(a.threads, 2u);
    EXPECT_DOUBLE_EQ(a.seconds, 1.0);
    EXPECT_DOUBLE_EQ(a.phases.assembleSeconds, 0.02);
    EXPECT_DOUBLE_EQ(a.phases.inspectSeconds, 0.04);
    EXPECT_DOUBLE_EQ(a.phases.foldSeconds, 0.06);
    EXPECT_DOUBLE_EQ(a.phases.selectSeconds, 0.08);
    EXPECT_DOUBLE_EQ(a.phases.mergeSeconds, 0.10);
    // The window trajectory appends in run order.
    ASSERT_EQ(a.roundTrace.size(), 4u);
    EXPECT_EQ(a.roundTrace[1], (RoundSample{10, 1, 1}));
    EXPECT_EQ(a.roundTrace[2], (RoundSample{20, 4, 3}));
    // The second run's spans continue the first's rounds and timeline.
    ASSERT_EQ(a.traceEvents.size(), 4u);
    EXPECT_EQ(a.traceEvents[2].round, 3u);
    EXPECT_EQ(a.traceEvents[3].round, 4u);
    EXPECT_DOUBLE_EQ(a.traceEvents[2].startSeconds, 0.6);
    EXPECT_DOUBLE_EQ(a.traceEvents[3].startSeconds, 0.8);
    EXPECT_EQ(a.traceEvents[3].phase, TraceEvent::Phase::Merge);
    // Non-zero digests chain in merge order.
    EXPECT_EQ(a.traceDigest, runtime::fnv1aMix(0xaaaa, 0xbbbb));

    // A zero digest (no deterministic schedule) is neutral on either
    // side: merging it changes nothing, and merging into an empty report
    // starts the chain from the FNV offset.
    RunReport b = make(10, 0xaaaa);
    b.merge(make(20, 0));
    EXPECT_EQ(b.traceDigest, 0xaaaau);
    RunReport c;
    c.merge(make(20, 0xbbbb));
    EXPECT_EQ(c.traceDigest, runtime::fnv1aMix(runtime::kFnv1aOffset, 0xbbbb));
    c.merge(make(30, 0));
    EXPECT_EQ(c.traceDigest, runtime::fnv1aMix(runtime::kFnv1aOffset, 0xbbbb));
    RunReport none;
    none.merge(make(20, 0));
    EXPECT_EQ(none.traceDigest, 0u);
}

// ---------------------------------------------------------------------
// BENCH_results.json
// ---------------------------------------------------------------------

TEST(BenchJson, EscapesStrings)
{
    EXPECT_EQ(runtime::jsonEscape("plain"), "plain");
    EXPECT_EQ(runtime::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(runtime::jsonEscape("x\ny\t"), "x\\ny\\t");
    EXPECT_EQ(runtime::jsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(BenchJson, RecordCarriesScheduleAndPhases)
{
    const RunReport r = runDet(false);
    runtime::BenchRecord rec =
        runtime::makeBenchRecord("toy", "det", 4, r);
    const std::string json = runtime::benchRecordJson(rec);

    EXPECT_NE(json.find("\"app\":\"toy\""), std::string::npos);
    EXPECT_NE(json.find("\"executor\":\"det\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
    for (const char* key :
         {"\"median_s\"", "\"min_s\"", "\"commit_ratio\"", "\"rounds\"",
          "\"generations\"", "\"digest\"", "\"phases\"",
          "\"assemble_s\"", "\"inspect_s\"", "\"fold_s\"",
          "\"select_s\"", "\"merge_s\"", "\"window_trajectory\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // The digest is a 16-hex-digit string (64-bit values do not survive
    // double-precision JSON parsers).
    char expect[64];
    std::snprintf(expect, sizeof(expect), "\"digest\":\"%016llx\"",
                  static_cast<unsigned long long>(r.traceDigest));
    EXPECT_NE(json.find(expect), std::string::npos) << json;

    // One [window, attempted, committed] triple per round.
    EXPECT_EQ(countOf(json.substr(json.find("window_trajectory")), "["),
              1 + r.rounds);
}

TEST(BenchHarness, RecordTakesEveryFieldFromTheFastestRep)
{
    // Three reps with distinct times and breakdowns; the fastest is
    // neither the first nor the last. min_s is its time, so phases,
    // counters and the window trajectory must be its too — otherwise
    // the headline and its breakdown describe different runs.
    auto rep = [](double seconds, double inspect, std::uint64_t rounds) {
        RunReport r;
        r.seconds = seconds;
        r.phases.inspectSeconds = inspect;
        r.phases.mergeSeconds = inspect / 10;
        r.rounds = rounds;
        r.committed = rounds * 100;
        r.traceDigest = rounds * 7919;
        r.roundTrace.assign(rounds, RoundSample{rounds, rounds, rounds});
        return r;
    };
    bench::recordRun("toy", "det", 2, rep(0.30, 0.03, 3));
    bench::recordRun("toy", "det", 2, rep(0.10, 0.01, 1));
    bench::recordRun("toy", "det", 2, rep(0.20, 0.02, 2));

    const std::vector<runtime::BenchRecord> records =
        bench::collectBenchRecords();
    ASSERT_EQ(records.size(), 1u);
    const runtime::BenchRecord& r = records.front();
    EXPECT_EQ(r.reps, 3);
    EXPECT_DOUBLE_EQ(r.minSeconds, 0.10);
    EXPECT_DOUBLE_EQ(r.medianSeconds, 0.20);
    EXPECT_DOUBLE_EQ(r.phases.inspectSeconds, 0.01);
    EXPECT_DOUBLE_EQ(r.phases.mergeSeconds, 0.001);
    EXPECT_EQ(r.rounds, 1u);
    EXPECT_EQ(r.committed, 100u);
    EXPECT_EQ(r.traceDigest, 7919u);
    EXPECT_EQ(r.windowTrajectory.size(), 1u);
}

TEST(BenchJson, DocumentStructure)
{
    const RunReport r = runDet(false);
    std::vector<runtime::BenchRecord> records;
    records.push_back(runtime::makeBenchRecord("toy", "det", 1, r));
    records.push_back(runtime::makeBenchRecord("toy", "det", 2, r));

    runtime::BenchRunInfo info;
    info.scale = 0.5;
    info.reps = 3;
    info.threads = {1, 2};
    std::ostringstream os;
    runtime::writeBenchResults(os, records, info);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"schema\": \"detgalois-bench/1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"scale\": 0.5"), std::string::npos);
    EXPECT_NE(doc.find("\"reps\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"threads\": [1, 2]"), std::string::npos);
    EXPECT_EQ(countOf(doc, "\"app\":\"toy\""), 2u);
    // Balanced braces/brackets (cheap structural sanity without a
    // parser; scripts/bench_check.py does the full json.load in CI).
    EXPECT_EQ(countOf(doc, "{"), countOf(doc, "}"));
    EXPECT_EQ(countOf(doc, "["), countOf(doc, "]"));
}

// ---------------------------------------------------------------------
// chrome://tracing dump
// ---------------------------------------------------------------------

TEST(TraceJson, DumpStructure)
{
    const RunReport r = runDet(true);
    ASSERT_FALSE(r.traceEvents.empty());

    std::vector<runtime::TraceRun> runs;
    runs.push_back(runtime::TraceRun{"toy/det/t4", r.traceEvents});
    std::ostringstream os;
    runtime::writeTraceEvents(os, runs);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    // One process-name metadata event naming the run's track.
    EXPECT_EQ(countOf(doc, "\"ph\":\"M\""), 1u);
    EXPECT_NE(doc.find("\"name\":\"toy/det/t4\""), std::string::npos);
    // Every phase span is a complete event with timestamp + duration.
    EXPECT_EQ(countOf(doc, "\"ph\":\"X\""), r.traceEvents.size());
    EXPECT_EQ(countOf(doc, "\"ts\":"), r.traceEvents.size());
    EXPECT_EQ(countOf(doc, "\"dur\":"), r.traceEvents.size());
    // Phase names appear once per round.
    for (const char* phase :
         {"\"assemble\"", "\"inspect\"", "\"select\"", "\"merge\""})
        EXPECT_EQ(countOf(doc, phase), r.rounds) << phase;
    EXPECT_EQ(countOf(doc, "{"), countOf(doc, "}"));
    EXPECT_EQ(countOf(doc, "["), countOf(doc, "]"));
}
