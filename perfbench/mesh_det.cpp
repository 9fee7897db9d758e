/**
 * @file
 * mesh-det: Delaunay mesh refinement (dmr) and Delaunay triangulation
 * (dt) under Exec::Det, at full width and at one thread.
 *
 * Cavity operators are heavy and rounds are few, so inspect/select and
 * the geometry and arena work dominate. This is the bypass workload for
 * serial-section changes: a fold or merge change should leave it flat,
 * while an operator or allocation change shows here first. Both apps
 * consume their input, so every pass rebuilds it (timed as set-up).
 */

#include <optional>

#include "apps/dmr.h"
#include "apps/dt.h"
#include "common.h"

namespace perfbench {

namespace {

namespace dmr = galois::apps::dmr;
namespace dt = galois::apps::dt;

constexpr std::size_t kDmrPoints = 8000;  //!< points of the dmr input mesh
constexpr std::size_t kDtPoints = 25000;  //!< points dt triangulates

} // namespace

int
runMeshDet(const Options& opt, Report& rep, Spans& spans)
{
    const std::uint64_t dmrSeed = subSeed(opt.seed, 11);
    const std::uint64_t ptSeed = subSeed(opt.seed, 12);
    const std::uint64_t orderSeed = subSeed(opt.seed, 13);

    std::optional<dmr::Problem> pm;
    std::optional<dt::Problem> pt;
    SetupTimes setup;
    Samples dmrBuild, dtBuild;

    auto rebuild = [&] {
        const double t0 = now();
        pm.reset();
        pm.emplace();
        dmr::makeProblem(kDmrPoints, dmrSeed, *pm);
        const double t1 = now();
        const auto pts = dt::randomPoints(kDtPoints, ptSeed);
        const double t2 = now();
        pt.reset();
        pt.emplace();
        dt::makeProblem(pts, orderSeed, *pt);
        const double t3 = now();
        setup.gen.add(t2 - t1);
        setup.build.add((t1 - t0) + (t3 - t2));
        setup.total.add(t3 - t0);
        dmrBuild.add(t1 - t0);
        dtBuild.add(t3 - t2);
        if (spans.on()) {
            const std::uint64_t id = spans.add(0, 0, "setup", t0, t3);
            spans.add(0, id, "geom.dmr_problem_build", t0, t1);
            spans.add(0, id, "geom.points_gen", t1, t2);
            spans.add(0, id, "geom.dt_problem_build", t2, t3);
        }
    };

    rebuild();
    rep.info(fmt("inputs: dmr %zu points (%zu bad triangles), dt %zu points "
                 "(serial prefix %zu)",
                 kDmrPoints, dmr::badTriangles(*pm).size(), kDtPoints,
                 pt->serialPrefix));

    std::vector<DetApp> apps{
        {"dmr", [] {},
         [&](const galois::Config& c) { return dmr::refine(*pm, c); },
         [&] { return dmr::validate(*pm); }},
        {"dt", [] {},
         [&](const galois::Config& c) { return dt::triangulate(*pt, c); },
         [&] { return dt::validate(*pt); }},
    };
    // The first pass uses the problems built above; later ones rebuild.
    bool fresh = true;
    auto perPass = [&] {
        if (!fresh)
            rebuild();
        fresh = false;
    };
    runPasses(opt, apps, setup, perPass, rep, spans);
    if (opt.trace) {
        rep.layer("geom.problem_build_s", "s", setup.build);
        rep.info("geom.dmr_problem_build_s " + dmrBuild.describe());
        rep.info("geom.dt_problem_build_s " + dtBuild.describe());
    }
    return 0;
}

} // namespace perfbench
