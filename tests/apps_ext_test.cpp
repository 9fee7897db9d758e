/**
 * @file
 * Tests for the extension applications (sssp, cc): agreement with the
 * classical sequential references across all executors, and the
 * determinism properties on the unique-fixed-point workloads. Also
 * checks that pfp's multi-phase report keeps every field of its phases.
 */

#include <gtest/gtest.h>

#include "apps/cc.h"

#include "apps/pfp.h"
#include "graph/generators.h"
#include "apps/sssp.h"

using namespace galois;
using graph::Node;

namespace {

Config
makeCfg(Exec exec, unsigned threads)
{
    Config cfg;
    cfg.exec = exec;
    cfg.threads = threads;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------

class SsspExecutors
    : public ::testing::TestWithParam<std::pair<Exec, unsigned>>
{};

TEST_P(SsspExecutors, MatchesDijkstra)
{
    const auto [exec, threads] = GetParam();
    auto edges = apps::sssp::randomWeightedGraph(3000, 5, 100, 401);
    apps::sssp::Graph g(3000, edges);
    const auto expect = apps::sssp::serialDijkstra(g, 0);

    apps::sssp::reset(g);
    auto report = apps::sssp::galoisSssp(g, 0, makeCfg(exec, threads));
    EXPECT_EQ(apps::sssp::distances(g), expect);
    EXPECT_GT(report.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspExecutors,
    ::testing::Values(std::pair{Exec::Serial, 1u}, std::pair{Exec::NonDet, 4u},
                      std::pair{Exec::Det, 1u}, std::pair{Exec::Det, 4u}));

TEST(Sssp, HandlesZeroAndUniformWeights)
{
    // Chain 0-1-2-3 with weight 7 each.
    std::vector<graph::Edge> edges{{0, 1, 7}, {1, 0, 7}, {1, 2, 7},
                                   {2, 1, 7}, {2, 3, 7}, {3, 2, 7}};
    apps::sssp::Graph g(4, edges);
    const auto d = apps::sssp::serialDijkstra(g, 0);
    EXPECT_EQ(d[3], 21);
    apps::sssp::galoisSssp(g, 0, makeCfg(Exec::Det, 2));
    EXPECT_EQ(apps::sssp::distances(g), d);
}

TEST(Sssp, UnreachableNodesStayInf)
{
    std::vector<graph::Edge> edges{{0, 1, 3}, {1, 0, 3}};
    apps::sssp::Graph g(3, edges);
    apps::sssp::galoisSssp(g, 0, makeCfg(Exec::NonDet, 2));
    EXPECT_EQ(apps::sssp::distances(g)[2], apps::sssp::kInf);
}

TEST(Sssp, DetTaskCountIsThreadCountInvariant)
{
    auto edges = apps::sssp::randomWeightedGraph(2000, 4, 50, 402);
    apps::sssp::Graph g(2000, edges);
    apps::sssp::reset(g);
    const auto ref = apps::sssp::galoisSssp(g, 0, makeCfg(Exec::Det, 1));
    for (unsigned t : {2u, 8u}) {
        apps::sssp::reset(g);
        const auto r = apps::sssp::galoisSssp(g, 0, makeCfg(Exec::Det, t));
        EXPECT_EQ(r.committed, ref.committed) << t << " threads";
        EXPECT_EQ(r.rounds, ref.rounds) << t << " threads";
    }
}

// ---------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------

TEST(Cc, MatchesUnionFindOnRandomGraph)
{
    auto edges = graph::randomKOut(4000, 2, 411, true);
    apps::cc::Graph g(4000, edges);
    const auto expect = apps::cc::serialComponents(g);
    for (auto [exec, threads] :
         {std::pair{Exec::Serial, 1u}, std::pair{Exec::NonDet, 4u},
          std::pair{Exec::Det, 4u}}) {
        apps::cc::galoisComponents(g, makeCfg(exec, threads));
        EXPECT_EQ(apps::cc::labels(g), expect)
            << "exec " << static_cast<int>(exec);
    }
}

TEST(Cc, CountsComponentsOfDisconnectedGraph)
{
    // Three components: {0,1}, {2,3,4}, {5}.
    std::vector<graph::Edge> edges{{0, 1}, {1, 0}, {2, 3},
                                   {3, 2}, {3, 4}, {4, 3}};
    apps::cc::Graph g(6, edges);
    const auto ref = apps::cc::serialComponents(g);
    EXPECT_EQ(apps::cc::countComponents(ref), 3u);
    apps::cc::galoisComponents(g, makeCfg(Exec::Det, 2));
    EXPECT_EQ(apps::cc::labels(g), ref);
}

TEST(Cc, SingleComponentOnDenseGraph)
{
    auto edges = graph::randomKOut(500, 5, 412, true);
    apps::cc::Graph g(500, edges);
    apps::cc::galoisComponents(g, makeCfg(Exec::NonDet, 4));
    // A 5-out random graph of 500 nodes is connected with overwhelming
    // probability; verify against the reference either way.
    EXPECT_EQ(apps::cc::labels(g), apps::cc::serialComponents(g));
}

// ---------------------------------------------------------------------
// Structured-graph shapes (shared by bfs and sssp)
// ---------------------------------------------------------------------

namespace {

/** Chain 0-1-...-n-1, unit weights, both directions. */
std::vector<graph::Edge>
chainEdges(Node n)
{
    std::vector<graph::Edge> edges;
    for (Node i = 0; i + 1 < n; ++i) {
        edges.push_back({i, i + 1, 1});
        edges.push_back({i + 1, i, 1});
    }
    return edges;
}

/** Star: hub 0 connected to all others. */
std::vector<graph::Edge>
starEdges(Node n)
{
    std::vector<graph::Edge> edges;
    for (Node i = 1; i < n; ++i) {
        edges.push_back({0, i, 1});
        edges.push_back({i, 0, 1});
    }
    return edges;
}

} // namespace

TEST(Sssp, ChainHasLinearDistances)
{
    apps::sssp::Graph g(500, chainEdges(500));
    apps::sssp::galoisSssp(g, 0, makeCfg(Exec::Det, 4));
    const auto d = apps::sssp::distances(g);
    for (Node i = 0; i < 500; ++i)
        ASSERT_EQ(d[i], static_cast<std::int64_t>(i));
}

TEST(Sssp, StarIsOneHopEverywhere)
{
    apps::sssp::Graph g(300, starEdges(300));
    apps::sssp::galoisSssp(g, 0, makeCfg(Exec::NonDet, 4));
    const auto d = apps::sssp::distances(g);
    EXPECT_EQ(d[0], 0);
    for (Node i = 1; i < 300; ++i)
        ASSERT_EQ(d[i], 1);
}

TEST(Cc, ChainIsOneComponent)
{
    apps::cc::Graph g(400, chainEdges(400));
    apps::cc::galoisComponents(g, makeCfg(Exec::Det, 4));
    const auto l = apps::cc::labels(g);
    for (Node i = 0; i < 400; ++i)
        ASSERT_EQ(l[i], 0u); // min label propagates end to end
}

// ---------------------------------------------------------------------
// PFP report
// ---------------------------------------------------------------------

TEST(Pfp, DetReportKeepsEveryPhaseField)
{
    // pfp runs one forEach per global-relabel phase and merges their
    // reports. The merged report must carry the phases' per-phase times
    // and a window trajectory with one sample per round.
    const graph::Node n = 256;
    auto edges = graph::randomFlowNetwork(n, 4, 50, 31);
    apps::pfp::Graph g(n, edges, /*find_reverse=*/true);
    const auto r = apps::pfp::galoisPfp(g, 0, n - 1, makeCfg(Exec::Det, 2));
    ASSERT_GT(r.report.rounds, 0u);
    EXPECT_GT(r.report.phases.inspectSeconds, 0.0);
    EXPECT_GT(r.report.phases.selectSeconds, 0.0);
    EXPECT_EQ(r.report.roundTrace.size(), r.report.rounds);
    EXPECT_NE(r.report.traceDigest, 0u);
}
