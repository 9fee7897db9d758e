/**
 * @file
 * graph-det: bfs, sssp, cc and mis on seeded random graphs under
 * Exec::Det, at full width and at one thread.
 *
 * The operators are light and each app takes hundreds of rounds, so the
 * serial completion sections (assemble, fold, merge) and the barriers
 * between phases dominate: this is the workload where a parallel fold or
 * a barrier change must show.
 */

#include <cstdio>
#include <optional>

#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/mis.h"
#include "apps/sssp.h"
#include "common.h"
#include "graph/generators.h"

namespace perfbench {

namespace {

namespace bfs = galois::apps::bfs;
namespace cc = galois::apps::cc;
namespace mis = galois::apps::mis;
namespace sssp = galois::apps::sssp;
using galois::graph::Node;

constexpr Node kNodes = 60000;    //!< nodes of every graph
constexpr unsigned kDegree = 5;   //!< k of the k-out generator
constexpr std::int64_t kMaxWeight = 100;
constexpr int kSetupReps = 5;     //!< set-up repetitions (median reported)

} // namespace

int
runGraphDet(const Options& opt, Report& rep, Spans& spans)
{
    const std::uint64_t kSeed = subSeed(opt.seed, 1);
    const std::uint64_t wSeed = subSeed(opt.seed, 2);
    const Node bfsSource = static_cast<Node>(subSeed(opt.seed, 3) % kNodes);
    const Node ssspSource = static_cast<Node>(subSeed(opt.seed, 4) % kNodes);

    std::optional<bfs::Graph> gb;
    std::optional<sssp::Graph> gs;
    std::optional<cc::Graph> gc;
    std::optional<mis::Graph> gm;

    SetupTimes setup;
    Samples gen, csr;
    for (int r = 0; r < kSetupReps; ++r) {
        const double t0 = now();
        const auto kEdges = galois::graph::randomKOut(kNodes, kDegree, kSeed,
                                                      true);
        const auto wEdges =
            sssp::randomWeightedGraph(kNodes, kDegree, kMaxWeight, wSeed);
        const double t1 = now();
        gb.emplace(kNodes, kEdges);
        gs.emplace(kNodes, wEdges);
        gc.emplace(kNodes, kEdges);
        gm.emplace(kNodes, kEdges);
        const double t2 = now();
        setup.gen.add(t1 - t0);
        setup.build.add(t2 - t1);
        setup.total.add(t2 - t0);
        const std::uint64_t id = spans.add(0, 0, "setup", t0, t2);
        spans.add(0, id, "graph.gen", t0, t1);
        spans.add(0, id, "graph.csr_build", t1, t2);
        if (r == 0)
            rep.info(fmt("inputs: %u nodes, k-out %u symmetric (%zu edges), "
                         "weighted (%zu edges), bfs source %u, sssp "
                         "source %u",
                         kNodes, kDegree, kEdges.size(), wEdges.size(),
                         bfsSource, ssspSource));
    }

    // References: bfs, sssp and cc have a unique fixed point, so the
    // serial algorithms give it. An MIS depends on the order tasks run
    // in; Det's must equal the serial execution in its id order, which
    // is what Exec::DetRef computes.
    const double r0 = now();
    const auto bfsRef = bfs::serialBfs(*gb, bfsSource);
    const auto ssspRef = sssp::serialDijkstra(*gs, ssspSource);
    const auto ccRef = cc::serialComponents(*gc);
    galois::Config refCfg;
    refCfg.exec = galois::Exec::DetRef;
    mis::reset(*gm);
    mis::galoisMis(*gm, refCfg);
    const auto misRef = mis::flags(*gm);
    if (!mis::isMaximalIndependentSet(*gm, misRef)) {
        std::fprintf(stderr, "perfbench: the DetRef MIS is not maximal\n");
        return 1;
    }
    rep.info(fmt("serial references in %.3f s (%zu components, %zu in MIS)",
                 now() - r0, cc::countComponents(ccRef),
                 static_cast<std::size_t>(std::count(
                     misRef.begin(), misRef.end(), mis::Flag::In))));

    std::vector<DetApp> apps{
        {"bfs", [&] { bfs::reset(*gb); },
         [&](const galois::Config& c) {
             return bfs::galoisBfs(*gb, bfsSource, c);
         },
         [&] { return bfs::distances(*gb) == bfsRef; }},
        {"sssp", [&] { sssp::reset(*gs); },
         [&](const galois::Config& c) {
             return sssp::galoisSssp(*gs, ssspSource, c);
         },
         [&] { return sssp::distances(*gs) == ssspRef; }},
        {"cc", [&] { cc::reset(*gc); },
         [&](const galois::Config& c) {
             return cc::galoisComponents(*gc, c);
         },
         [&] { return cc::labels(*gc) == ccRef; }},
        {"mis", [&] { mis::reset(*gm); },
         [&](const galois::Config& c) { return mis::galoisMis(*gm, c); },
         [&] {
             const auto f = mis::flags(*gm);
             return mis::isMaximalIndependentSet(*gm, f) && f == misRef;
         }},
    };
    if (opt.trace) {
        rep.layer("graph.gen_s", "s", setup.gen);
        rep.layer("graph.csr_build_s", "s", setup.build);
    }
    runPasses(opt, apps, setup, nullptr, rep, spans);
    return 0;
}

} // namespace perfbench
