/**
 * @file
 * Differential determinism across the four-backend matrix.
 *
 * Backend 1 vs 2 — Exec::Det against Exec::DetRef: the golden-digest
 * harness (tests/digest_dump.cpp) proves the schedule is *stable* —
 * identical across thread counts and unchanged since the golden file
 * was recorded. It cannot prove the schedule is *right*: a bug that
 * deterministically produces the wrong committed sets (say, a
 * window-prefix off-by-one that every thread count reproduces) keeps
 * the digests equal and merely re-goldens on regeneration. The oracle
 * here is independent: a from-scratch serial implementation sharing
 * only the pure policy components (IdService, WindowPolicy, the mark
 * discipline). For every application we assert the executor matches the
 * reference on (i) RunReport::traceDigest — the round-by-round
 * committed-id sequence — and (ii) a hash of the final output, at every
 * thread count.
 *
 * Backend 3 — Exec::DetRes (deterministic reservations): result
 * determinism WITHOUT schedule identity. Its rounds admit id-order
 * prefixes sized by the PBBS policy instead of the adaptive window, so
 * its round boundaries — and hence its trace digest and round count —
 * legitimately differ from DIG's. But because every round is an
 * id-prefix and a committing task beat every pending smaller-id
 * conflicting task, each task observes exactly the state the serial
 * id-order execution would show it: the FINAL STATE (and total
 * committed count) must equal Det/DetRef's on every app. We therefore
 * compare DetRes on output + committed only, never on digest/rounds,
 * and separately pin its *self*-portability: the DetRes digest is the
 * same at 1/2/4/8 threads.
 *
 * Backend 4 — Exec::CoreDet: the weaker CoreDet contract. Runs are
 * reproducible for a fixed (threads, quantum, rotation) — asserted by
 * running each config twice — but the schedule (and, for
 * order-sensitive programs, the output) legitimately varies with the
 * thread count, so no cross-thread-count or cross-backend equality is
 * asserted. This is precisely the portability gap between CoreDet-style
 * determinism and DIG/DetRes determinism that the paper's Section 5.2
 * comparison measures.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/dmr.h"
#include "apps/dt.h"
#include "apps/mis.h"
#include "apps/mm.h"
#include "apps/pfp.h"
#include "apps/sssp.h"
#include "graph/generators.h"

namespace {

using galois::Config;
using galois::Exec;
namespace graph = galois::graph;
namespace geom = galois::geom;

struct RunOut
{
    std::uint64_t digest = 0;     //!< RunReport::traceDigest
    std::uint64_t output = 0;     //!< hash of the final state
    std::uint64_t committed = 0;  //!< total committed tasks
    std::uint64_t rounds = 0;
};

template <typename T>
std::uint64_t
hashVec(std::uint64_t h, const std::vector<T>& v)
{
    for (const T& x : v)
        h = galois::runtime::fnv1aMix(h, static_cast<std::uint64_t>(x));
    return h;
}

// Mesh outputs hash by geometry, not by element id: triangle ids
// depend on which worker allocated them, so only the canonical
// coordinate-sorted fingerprint is comparable across executors.

Config
cfgFor(Exec exec, unsigned threads)
{
    Config cfg;
    cfg.exec = exec;
    cfg.threads = threads;
    return cfg;
}

RunOut
out(const galois::RunReport& r, std::uint64_t output_hash)
{
    return RunOut{r.traceDigest, output_hash, r.committed, r.rounds};
}

// --- per-app runners (same generator recipes as digest_dump) ---------

RunOut
runBfs(const Config& cfg)
{
    auto edges = graph::randomKOut(1500, 5, 11, /*symmetric=*/true);
    galois::apps::bfs::Graph g(1500, edges);
    auto r = galois::apps::bfs::galoisBfs(g, 0, cfg);
    return out(r, hashVec(galois::runtime::kFnv1aOffset,
                          galois::apps::bfs::distances(g)));
}

RunOut
runSssp(const Config& cfg)
{
    auto edges = galois::apps::sssp::randomWeightedGraph(1200, 4, 100, 13);
    galois::apps::sssp::Graph g(1200, edges);
    auto r = galois::apps::sssp::galoisSssp(g, 0, cfg);
    return out(r, hashVec(galois::runtime::kFnv1aOffset,
                          galois::apps::sssp::distances(g)));
}

RunOut
runCc(const Config& cfg)
{
    auto edges = graph::randomKOut(1500, 4, 17, /*symmetric=*/true);
    galois::apps::cc::Graph g(1500, edges);
    auto r = galois::apps::cc::galoisComponents(g, cfg);
    return out(r, hashVec(galois::runtime::kFnv1aOffset,
                          galois::apps::cc::labels(g)));
}

RunOut
runMis(const Config& cfg)
{
    auto edges = graph::randomKOut(2000, 5, 23, /*symmetric=*/true);
    galois::apps::mis::Graph g(2000, edges);
    auto r = galois::apps::mis::galoisMis(g, cfg);
    return out(r, hashVec(galois::runtime::kFnv1aOffset,
                          galois::apps::mis::flags(g)));
}

RunOut
runMm(const Config& cfg)
{
    auto prob = galois::apps::mm::makeProblem(1500, 4, 29);
    auto r = galois::apps::mm::galoisMatch(prob, cfg);
    return out(r, hashVec(galois::runtime::kFnv1aOffset,
                          galois::apps::mm::matchedEdges(prob)));
}

RunOut
runPfp(const Config& cfg)
{
    const graph::Node n = 200;
    auto edges = graph::randomFlowNetwork(n, 4, 30, 31);
    galois::apps::pfp::Graph g(n, edges, /*find_reverse=*/true);
    auto res = galois::apps::pfp::galoisPfp(g, 0, n - 1, cfg);
    namespace rt = galois::runtime;
    std::uint64_t h = rt::fnv1aMix(rt::kFnv1aOffset,
                                   static_cast<std::uint64_t>(res.value));
    for (std::uint64_t e = 0; e < g.numEdges(); ++e)
        h = rt::fnv1aMix(h, static_cast<std::uint64_t>(g.edgeData(e)));
    for (graph::Node v = 0; v < g.numNodes(); ++v) {
        h = rt::fnv1aMix(h, static_cast<std::uint64_t>(g.data(v).excess));
        h = rt::fnv1aMix(h, g.data(v).height);
    }
    return out(res.report, h);
}

RunOut
runDmr(const Config& cfg)
{
    galois::apps::dmr::Problem prob;
    galois::apps::dmr::makeProblem(400, 37, prob);
    auto r = galois::apps::dmr::refine(prob, cfg);
    EXPECT_TRUE(galois::apps::dmr::validate(prob));
    return out(r, prob.mesh.geometricHash());
}

RunOut
runDt(const Config& cfg)
{
    galois::apps::dt::Problem prob;
    galois::apps::dt::makeProblem(galois::apps::dt::randomPoints(500, 41),
                                  43, prob);
    auto r = galois::apps::dt::triangulate(prob, cfg);
    EXPECT_TRUE(galois::apps::dt::validate(prob));
    return out(r,
               prob.mesh.geometricHash(galois::apps::dt::kNumSuperVerts));
}

using Runner = RunOut (*)(const Config&);

void
expectMatchesReference(const char* app, Runner run)
{
    const RunOut ref = run(cfgFor(Exec::DetRef, 1));
    ASSERT_NE(ref.committed, 0u) << app << ": reference did no work";
    RunOut res1; // DetRes at t=1: the self-portability reference
    for (unsigned t : {1u, 2u, 4u, 8u}) {
        const RunOut det = run(cfgFor(Exec::Det, t));
        EXPECT_EQ(det.digest, ref.digest)
            << app << " t=" << t << ": schedule diverges from reference";
        EXPECT_EQ(det.output, ref.output)
            << app << " t=" << t << ": output diverges from reference";
        EXPECT_EQ(det.committed, ref.committed) << app << " t=" << t;
        EXPECT_EQ(det.rounds, ref.rounds) << app << " t=" << t;

        // DetRes: result determinism, not schedule identity. Output
        // and total committed must equal the reference's (every round
        // is an id-prefix, so each task sees the serial id-order
        // view); the digest and round count are compared only against
        // DetRes itself — its prefix schedule is a different (equally
        // deterministic) schedule than DIG's, and asserting digest
        // equality with ref here would be asserting a non-property.
        const RunOut res = run(cfgFor(Exec::DetRes, t));
        EXPECT_EQ(res.output, ref.output)
            << app << " t=" << t
            << ": DetRes final state diverges from the id-order result";
        EXPECT_EQ(res.committed, ref.committed) << app << " t=" << t;
        if (t == 1u) {
            res1 = res;
        } else {
            EXPECT_EQ(res.digest, res1.digest)
                << app << " t=" << t
                << ": DetRes schedule is not thread-count invariant";
            EXPECT_EQ(res.rounds, res1.rounds) << app << " t=" << t;
        }
    }
}

/**
 * CoreDet leg of the matrix: same config -> byte-identical run (digest
 * AND output), per thread count. Nothing is asserted across thread
 * counts or against the other backends — CoreDet's contract does not
 * extend that far (see the file comment).
 */
void
expectCoreDetReproducible(const char* app, Runner run)
{
    for (unsigned t : {1u, 2u, 4u}) {
        const RunOut a = run(cfgFor(Exec::CoreDet, t));
        const RunOut b = run(cfgFor(Exec::CoreDet, t));
        ASSERT_NE(a.committed, 0u) << app << ": coredet did no work";
        EXPECT_EQ(a.digest, b.digest)
            << app << " t=" << t << ": coredet schedule not reproducible";
        EXPECT_EQ(a.output, b.output)
            << app << " t=" << t << ": coredet output not reproducible";
        EXPECT_EQ(a.committed, b.committed) << app << " t=" << t;
    }
}

TEST(DifferentialDeterminism, Bfs) { expectMatchesReference("bfs", runBfs); }
TEST(DifferentialDeterminism, Sssp)
{
    expectMatchesReference("sssp", runSssp);
}
TEST(DifferentialDeterminism, Cc) { expectMatchesReference("cc", runCc); }
TEST(DifferentialDeterminism, Mis) { expectMatchesReference("mis", runMis); }
TEST(DifferentialDeterminism, Mm) { expectMatchesReference("mm", runMm); }
TEST(DifferentialDeterminism, Pfp) { expectMatchesReference("pfp", runPfp); }
TEST(DifferentialDeterminism, Dmr) { expectMatchesReference("dmr", runDmr); }
TEST(DifferentialDeterminism, Dt) { expectMatchesReference("dt", runDt); }

// CoreDet reproducibility spot-checks: one relaxation app, one
// order-sensitive app and the two cavity apps that Figure 6 times under
// Exec::CoreDet (the full 8-app grid would just repeat the same property
// at several times the cost).
TEST(CoreDetReproducibility, Bfs)
{
    expectCoreDetReproducible("bfs", runBfs);
}
TEST(CoreDetReproducibility, Mis)
{
    expectCoreDetReproducible("mis", runMis);
}
TEST(CoreDetReproducibility, Dmr)
{
    expectCoreDetReproducible("dmr", runDmr);
}
TEST(CoreDetReproducibility, Dt) { expectCoreDetReproducible("dt", runDt); }

} // namespace
