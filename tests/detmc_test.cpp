/**
 * @file
 * detmc certification suite (label: detmc).
 *
 * This target compiles the concurrency kernel's sources with
 * -DDETGALOIS_DETMC=1, so the primitives carry live schedule points,
 * and drives the four bounded models of tests/detmc_models.h:
 *
 *  - certification: exhaustive exploration (bound NOT hit) of each
 *    model finds zero violations — §13 quiescence-equivalence, §14
 *    min-id-wins, the fold/owner-release mark lifecycle and the
 *    worklist/termination handoff become
 *    machine-checked facts rather than prose arguments;
 *  - coverage: the four explorations together visit >= 10k
 *    interleavings (the checker is exercising a real space, not a
 *    degenerate one);
 *  - detection: each seeded protocol bug (barrier.early-sense,
 *    lockable.markmin-tear, lockable.release-unowned,
 *    termination.weak-retire) is found, and its
 *    counterexample replays byte-identically — the same schedule
 *    yields the same trace, twice;
 *  - pruning soundness probe: disabling sleep sets explores at least
 *    as many schedules and still finds zero violations.
 */

#include "tests/detmc_models.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

namespace {

namespace detmc = galois::analysis::detmc;
using detmc_models::allModels;

/** Each model is explored once per process; tests share the result. */
const detmc::Result&
certified(const std::string& name)
{
    static std::map<std::string, detmc::Result> cache;
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;
    for (const auto& m : allModels())
        if (name == m.name) {
            detmc::Result r = detmc::explore(m.make());
            return cache.emplace(name, std::move(r)).first->second;
        }
    throw std::logic_error("unknown model: " + name);
}

std::string
describeViolations(const detmc::Result& r)
{
    std::string s;
    for (const auto& v : r.violations)
        s += v.what + " [schedule " + detmc::formatSchedule(v.schedule) +
             "]\n";
    return s;
}

TEST(DetMc, RoundFusedCertified)
{
    const auto& r = certified("round-fused");
    EXPECT_TRUE(r.ok()) << describeViolations(r);
    EXPECT_FALSE(r.stats.boundHit) << "exploration was not exhaustive";
    EXPECT_GT(r.stats.schedules, 0u);
}

TEST(DetMc, MarkMinCertified)
{
    const auto& r = certified("mark-min");
    EXPECT_TRUE(r.ok()) << describeViolations(r);
    EXPECT_FALSE(r.stats.boundHit) << "exploration was not exhaustive";
}

TEST(DetMc, MarkReleaseCertified)
{
    const auto& r = certified("mark-release");
    EXPECT_TRUE(r.ok()) << describeViolations(r);
    EXPECT_FALSE(r.stats.boundHit) << "exploration was not exhaustive";
    EXPECT_GT(r.stats.schedules, 1u);
}

TEST(DetMc, WorklistCertified)
{
    const auto& r = certified("worklist");
    EXPECT_TRUE(r.ok()) << describeViolations(r);
    EXPECT_FALSE(r.stats.boundHit) << "exploration was not exhaustive";
}

TEST(DetMc, ExploresAtLeastTenThousandInterleavings)
{
    std::uint64_t total = 0;
    for (const auto& m : allModels()) {
        const auto& r = certified(m.name);
        RecordProperty(m.name,
                       static_cast<int>(r.stats.schedules));
        total += r.stats.schedules;
    }
    EXPECT_GE(total, 10000u)
        << "the models together must cover >= 10k interleavings";
}

TEST(DetMc, SeededBugsAreDetected)
{
    unsigned detected = 0;
    for (const auto& m : allModels()) {
        if (!m.bug)
            continue;
        detmc::Options opts;
        opts.seedBug = m.bug;
        const detmc::Result r = detmc::explore(m.make(), opts);
        EXPECT_FALSE(r.ok())
            << m.name << ": seeded bug " << m.bug << " was not found";
        if (!r.ok())
            ++detected;
    }
    EXPECT_GE(detected, 2u);
}

TEST(DetMc, CounterexamplesReplayByteIdentically)
{
    for (const auto& m : allModels()) {
        if (!m.bug)
            continue;
        detmc::Options opts;
        opts.seedBug = m.bug;
        const detmc::Result r = detmc::explore(m.make(), opts);
        ASSERT_FALSE(r.violations.empty()) << m.name;
        const auto& schedule = r.violations.front().schedule;
        const detmc::ReplayResult a =
            detmc::replay(m.make(), schedule, opts);
        const detmc::ReplayResult b =
            detmc::replay(m.make(), schedule, opts);
        EXPECT_TRUE(a.violated)
            << m.name << ": replay of the counterexample is clean";
        EXPECT_EQ(a.trace, b.trace)
            << m.name << ": replay traces are not byte-identical";
        EXPECT_FALSE(a.trace.empty());
    }
}

TEST(DetMc, InvalidScheduleIsReportedNotExecuted)
{
    // Thread 7 does not exist in a 2-thread model.
    const detmc::ReplayResult r =
        detmc::replay(detmc_models::worklistModel(), {7});
    EXPECT_TRUE(r.violated);
    EXPECT_NE(r.what.find("invalid schedule"), std::string::npos)
        << r.what;
}

TEST(DetMc, SleepSetPruningIsSound)
{
    // Without pruning the raw tree is larger but must agree on the
    // verdict. Bound the raw run: its size, not its exhaustiveness, is
    // the point here.
    detmc::Options raw;
    raw.sleepSets = false;
    raw.maxSchedules = 20000;
    const detmc::Result unpruned =
        detmc::explore(detmc_models::worklistModel(), raw);
    EXPECT_TRUE(unpruned.ok()) << describeViolations(unpruned);
    const auto& pruned = certified("worklist");
    EXPECT_GE(unpruned.stats.schedules + unpruned.stats.sleepPruned,
              pruned.stats.schedules);
}

TEST(DetMc, ScheduleFormatRoundTrips)
{
    const std::vector<unsigned> s = {0, 1, 1, 0, 2, 15};
    EXPECT_EQ(detmc::parseSchedule(detmc::formatSchedule(s)), s);
    EXPECT_EQ(detmc::formatSchedule({}), "");
    EXPECT_TRUE(detmc::parseSchedule("").empty());
    EXPECT_THROW(detmc::parseSchedule("0,x"), std::invalid_argument);
}

} // namespace
