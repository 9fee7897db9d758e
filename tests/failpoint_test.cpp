/**
 * @file
 * Unit tests for the deterministic fault-injection registry
 * (support/failpoint.h): plan matching, spec parsing, trigger
 * accounting, RAII scoping, and the wiring into graph I/O.
 *
 * End-to-end executor fault tests live in tests/resilience_test.cpp;
 * this file covers the subsystem itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <sstream>

#include "graph/io.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"

using galois::support::FailPlan;
using galois::support::FailpointError;
namespace failpoints = galois::support::failpoints;

namespace {

class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::clearAll(); }
    void TearDown() override { failpoints::clearAll(); }

    /** Hits the site with keys [0, n) and returns the keys that threw. */
    std::vector<std::uint64_t>
    sweep(const char* site, std::uint64_t n)
    {
        std::vector<std::uint64_t> fired;
        for (std::uint64_t k = 0; k < n; ++k) {
            try {
                FAILPOINT(site, k);
            } catch (const FailpointError&) {
                fired.push_back(k);
            }
        }
        return fired;
    }
};

TEST_F(FailpointTest, UnarmedSiteIsSilent)
{
    EXPECT_TRUE(sweep("test.site", 100).empty());
    EXPECT_EQ(failpoints::triggerCount("test.site"), 0u);
}

TEST_F(FailpointTest, EqMatcherFiresOnExactKey)
{
    failpoints::set("test.site", FailPlan::throwAt(17));
    EXPECT_EQ(sweep("test.site", 100),
              (std::vector<std::uint64_t>{17}));
    EXPECT_EQ(failpoints::triggerCount("test.site"), 1u);
}

TEST_F(FailpointTest, GeMatcherFiresFromThresholdOn)
{
    failpoints::set("test.site",
                    FailPlan{FailPlan::Action::Throw,
                             FailPlan::Match::Ge, 97, 0});
    EXPECT_EQ(sweep("test.site", 100),
              (std::vector<std::uint64_t>{97, 98, 99}));
    EXPECT_EQ(failpoints::triggerCount("test.site"), 3u);
}

TEST_F(FailpointTest, ModMatcherFiresOnResidueClass)
{
    failpoints::set("test.site",
                    FailPlan{FailPlan::Action::Throw,
                             FailPlan::Match::Mod, 7, 3});
    EXPECT_EQ(sweep("test.site", 20),
              (std::vector<std::uint64_t>{3, 10, 17}));
}

TEST_F(FailpointTest, AlwaysMatcherFiresEveryTime)
{
    failpoints::set("test.site",
                    FailPlan{FailPlan::Action::Throw,
                             FailPlan::Match::Always, 0, 0});
    EXPECT_EQ(sweep("test.site", 5).size(), 5u);
}

TEST_F(FailpointTest, SitesAreIndependent)
{
    failpoints::set("test.a", FailPlan::throwAt(1));
    EXPECT_TRUE(sweep("test.b", 10).empty());
    EXPECT_EQ(sweep("test.a", 10),
              (std::vector<std::uint64_t>{1}));
}

TEST_F(FailpointTest, ErrorMessageIsDeterministic)
{
    failpoints::set("test.site", FailPlan::throwAt(42));
    std::string first, second;
    try {
        FAILPOINT("test.site", 42);
    } catch (const FailpointError& e) {
        first = e.what();
        EXPECT_EQ(e.site(), "test.site");
        EXPECT_EQ(e.key(), 42u);
    }
    try {
        FAILPOINT("test.site", 42);
    } catch (const FailpointError& e) {
        second = e.what();
    }
    EXPECT_EQ(first, "failpoint 'test.site' triggered (key=42)");
    EXPECT_EQ(first, second);
}

TEST_F(FailpointTest, BadAllocActionSimulatesAllocationFailure)
{
    failpoints::set("test.site", FailPlan::badAllocAt(3));
    EXPECT_NO_THROW(FAILPOINT("test.site", 2));
    EXPECT_THROW(FAILPOINT("test.site", 3), std::bad_alloc);
    EXPECT_EQ(failpoints::triggerCount("test.site"), 1u);
}

TEST_F(FailpointTest, ClearDisarmsOneSite)
{
    failpoints::set("test.a", FailPlan::throwAt(0));
    failpoints::set("test.b", FailPlan::throwAt(0));
    failpoints::clear("test.a");
    EXPECT_TRUE(sweep("test.a", 1).empty());
    EXPECT_EQ(sweep("test.b", 1).size(), 1u);
    EXPECT_EQ(failpoints::armedSites(),
              (std::vector<std::string>{"test.b"}));
}

TEST_F(FailpointTest, ScopedArmsAndDisarms)
{
    {
        failpoints::Scoped fp("test.site", FailPlan::throwAt(5));
        EXPECT_EQ(sweep("test.site", 10).size(), 1u);
    }
    EXPECT_TRUE(sweep("test.site", 10).empty());
}

TEST_F(FailpointTest, ParseSpecArmsEveryClause)
{
    ASSERT_TRUE(failpoints::parseSpec(
        "det.inspect=throw@eq:17;graph.readEdgeList=badalloc@ge:3;"
        "nondet.task=throw@mod:5:2;test.x=throw@always"));
    EXPECT_EQ(failpoints::armedSites().size(), 4u);
    EXPECT_EQ(sweep("det.inspect", 20),
              (std::vector<std::uint64_t>{17}));
    EXPECT_THROW(FAILPOINT("graph.readEdgeList", 3), std::bad_alloc);
    EXPECT_EQ(sweep("nondet.task", 10),
              (std::vector<std::uint64_t>{2, 7}));
}

TEST_F(FailpointTest, MalformedSpecArmsNothing)
{
    for (const char* bad :
         {"nosigns", "=throw@always", "a=explode@always", "a=throw@eq:",
          "a=throw@eq:12x", "a=throw@mod:5", "a=throw@mod:0:1",
          "a=throw", "a=throw@near:4", "good=throw@always;bad=zzz@1"}) {
        EXPECT_FALSE(failpoints::parseSpec(bad)) << bad;
        EXPECT_TRUE(failpoints::armedSites().empty()) << bad;
    }
    // Empty clauses are tolerated (trailing semicolons etc).
    EXPECT_TRUE(failpoints::parseSpec(";;"));
    EXPECT_TRUE(failpoints::armedSites().empty());
}

TEST_F(FailpointTest, ParseErrorsAreOneLineDiagnostics)
{
    // Each malformed spec maps to a diagnostic naming the clause and
    // the reason — the string a mistyped DETGALOIS_FAILPOINTS prints
    // before the process exits (never silent truncation).
    const std::pair<const char*, const char*> cases[] = {
        {"graph.io=throw@always", "unknown failpoint site"},
        {"frobnicate=throw@always", "unknown failpoint site"},
        {"test.x=explode@always", "unknown action"},
        {"test.x=throw@near:4", "unknown match"},
        {"test.x=throw@eq:12x", "bad key"},
        {"test.x=throw@mod:5", "mod match wants"},
        {"test.x=throw@always^", "bad trigger limit"},
        {"test.x=throw@always^0", "bad trigger limit"},
        {"test.x=throw@always^2x", "bad trigger limit"},
        {"nosigns", ""},
    };
    for (const auto& [spec, want] : cases) {
        const std::string err = failpoints::parseSpecError(spec);
        EXPECT_FALSE(err.empty()) << spec;
        EXPECT_NE(err.find("\"" + std::string(spec) + "\""),
                  std::string::npos)
            << spec << " -> " << err;
        if (*want) {
            EXPECT_NE(err.find(want), std::string::npos)
                << spec << " -> " << err;
        }
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    }
    EXPECT_EQ(failpoints::parseSpecError(
                  "det.inspect=throw@eq:1;test.x=badalloc@ge:2^3"),
              "");
}

TEST_F(FailpointTest, KnownSitesIncludeRuntimeAndService)
{
    const auto sites = failpoints::knownSites();
    for (const char* site :
         {"det.inspect", "det.merge", "arena.chunk", "threadpool.spawn",
          "service.admit", "service.lane"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), site),
                  sites.end())
            << site;
    }
}

TEST_F(FailpointTest, TriggerLimitMakesFaultTransient)
{
    ASSERT_TRUE(failpoints::parseSpec("test.site=throw@always^2"));
    EXPECT_EQ(sweep("test.site", 10).size(), 2u); // quiet after 2
    EXPECT_EQ(failpoints::triggerCount("test.site"), 2u);
}

TEST_F(FailpointTest, TransientAtHelperFiresOnce)
{
    failpoints::set("test.site", FailPlan::transientAt(5));
    EXPECT_EQ(sweep("test.site", 10), (std::vector<std::uint64_t>{5}));
    EXPECT_TRUE(sweep("test.site", 10).empty());
    EXPECT_EQ(failpoints::triggerCount("test.site"), 1u);
}

// ---------------------------------------------------------------------
// Job scoping
// ---------------------------------------------------------------------

TEST_F(FailpointTest, JobScopeShadowsProcessRegistry)
{
    failpoints::set("test.site", FailPlan{FailPlan::Action::Throw,
                                          FailPlan::Match::Always, 0, 0});
    {
        failpoints::JobScope quiet; // empty scope: all plans suppressed
        EXPECT_TRUE(sweep("test.site", 5).empty());
        EXPECT_EQ(quiet.planCount(), 0u);
    }
    EXPECT_EQ(sweep("test.site", 5).size(), 5u); // registry restored
}

TEST_F(FailpointTest, JobScopePlansAndCountsAreScopeLocal)
{
    failpoints::JobScope scope("test.site=throw@eq:3");
    EXPECT_EQ(scope.planCount(), 1u);
    EXPECT_EQ(sweep("test.site", 10), (std::vector<std::uint64_t>{3}));
    EXPECT_EQ(scope.triggerCount("test.site"), 1u);
    // The process-wide counter never saw the scoped firing.
    EXPECT_EQ(failpoints::triggerCount("test.site"), 0u);
}

TEST_F(FailpointTest, JobScopeRejectsMalformedSpec)
{
    EXPECT_THROW(failpoints::JobScope("bogus.site=throw@always"),
                 std::invalid_argument);
    EXPECT_THROW(failpoints::JobScope("test.x=throw@always^0"),
                 std::invalid_argument);
    // A failed constructor must not leave a scope installed.
    failpoints::set("test.site", FailPlan::throwAt(0));
    EXPECT_EQ(sweep("test.site", 1).size(), 1u);
}

TEST_F(FailpointTest, JobScopeFollowsJobOntoPoolWorkers)
{
    auto& pool = galois::support::ThreadPool::get();
    const unsigned width = std::min(2u, pool.maxThreads());
    failpoints::JobScope scope("test.site=throw@always");
    std::atomic<unsigned> fired{0};
    pool.run(width, [&fired](unsigned tid) {
        try {
            FAILPOINT("test.site", tid);
        } catch (const FailpointError&) {
            fired.fetch_add(1);
        }
    });
    EXPECT_EQ(fired.load(), width);
    EXPECT_EQ(scope.triggerCount("test.site"), width);
}

TEST_F(FailpointTest, SetResetsTriggerCount)
{
    failpoints::set("test.site", FailPlan::throwAt(1));
    (void)sweep("test.site", 3);
    EXPECT_EQ(failpoints::triggerCount("test.site"), 1u);
    failpoints::set("test.site", FailPlan::throwAt(2));
    EXPECT_EQ(failpoints::triggerCount("test.site"), 0u);
}

TEST_F(FailpointTest, KeyOfIsIntegralValueOrZero)
{
    EXPECT_EQ(failpoints::keyOf(std::uint32_t(7)), 7u);
    EXPECT_EQ(failpoints::keyOf(char(3)), 3u);
    struct Opaque
    {
        int x;
    };
    EXPECT_EQ(failpoints::keyOf(Opaque{9}), 0u);
}

// ---------------------------------------------------------------------
// Wiring: graph I/O
// ---------------------------------------------------------------------

TEST_F(FailpointTest, EdgeListImportSurfacesInjectedAllocFailure)
{
    const std::string input = "0 1\n1 2\n2 3\n# comment\n3 4\n";
    {
        std::istringstream is(input);
        galois::graph::Node n = 0;
        auto edges = galois::graph::readEdgeList(is, n);
        ASSERT_TRUE(edges.has_value());
        EXPECT_EQ(edges->size(), 4u);
    }
    failpoints::Scoped fp("graph.readEdgeList", FailPlan::badAllocAt(2));
    std::istringstream is(input);
    galois::graph::Node n = 0;
    EXPECT_THROW((void)galois::graph::readEdgeList(is, n),
                 std::bad_alloc);
}

TEST_F(FailpointTest, DimacsImportSurfacesInjectedAllocFailure)
{
    const std::string input =
        "p max 3 2\nn 1 s\nn 3 t\na 1 2 5\na 2 3 4\n";
    {
        std::istringstream is(input);
        auto parsed = galois::graph::readDimacsMaxFlow(is);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->edges.size(), 4u); // arcs + residual twins
    }
    failpoints::Scoped fp("graph.readDimacs", FailPlan::badAllocAt(2));
    std::istringstream is(input);
    EXPECT_THROW((void)galois::graph::readDimacsMaxFlow(is),
                 std::bad_alloc);
}

} // namespace
