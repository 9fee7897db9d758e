#include "apps/dt.h"

#include <algorithm>
#include <stdexcept>

#include "support/prng.h"

namespace galois::apps::dt {

using geom::BorderEdge;
using geom::Cavity;
using geom::kNoTri;
using geom::Point;
using geom::TriId;
using geom::VertId;

namespace {

/** Saved inspect-phase state (continuation optimization). */
struct DtState
{
    Cavity cav;
    std::vector<VertId> moved; //!< bucketed points to redistribute
};

/** Deterministically pick the created triangle containing point q. */
TriId
placePoint(const geom::Mesh& mesh, const std::vector<TriId>& created,
           const Point& q)
{
    for (TriId t : created)
        if (mesh.contains(t, q))
            return t;
    // Numeric edge case: q sits exactly on a skipped/degenerate border.
    // Fall back to the triangle with the least violation — still a
    // deterministic choice.
    TriId best = created.front();
    double best_score = -1e300;
    for (TriId t : created) {
        double score = 1e300;
        for (int i = 0; i < 3; ++i) {
            const auto [a, b] = mesh.edgeVerts(t, i);
            score = std::min(
                score, orient2d(mesh.point(a), mesh.point(b), q));
        }
        if (score > best_score) {
            best_score = score;
            best = t;
        }
    }
    return best;
}

} // namespace

std::vector<Point>
randomPoints(std::size_t n, std::uint64_t seed)
{
    std::vector<Point> pts;
    pts.reserve(n);
    // One counter-based stream per point: point i is a pure function of
    // (seed, i), so subsets and supersets of the same seed agree.
    for (std::size_t i = 0; i < n; ++i) {
        const support::CounterPrng rng(seed, i);
        pts.push_back(Point{rng.peekDouble(0), rng.peekDouble(1)});
    }
    return pts;
}

void
makeProblem(const std::vector<Point>& points, std::uint64_t seed,
            Problem& prob)
{
    // Super triangle far outside the unit square: its vertices are
    // outside every circumcircle of interest.
    const VertId s0 = prob.mesh.addVertex(Point{-1e6, -1e6});
    const VertId s1 = prob.mesh.addVertex(Point{1e6, -1e6});
    const VertId s2 = prob.mesh.addVertex(Point{0, 1e6});
    const TriId root = prob.mesh.createTriangle(s0, s1, s2);

    // Deduplicate by exact coordinates (duplicate insertion would create
    // degenerate triangles).
    std::vector<Point> uniq(points);
    std::sort(uniq.begin(), uniq.end(), [](const Point& a, const Point& b) {
        return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

    prob.insertOrder.reserve(uniq.size());
    for (const Point& p : uniq) {
        const VertId v = prob.mesh.addVertex(p);
        prob.mesh.tri(root).bucket.push_back(v);
        prob.insertOrder.push_back(v);
    }
    prob.pointLocks.resize(prob.mesh.numVertices());
    prob.pointTri.assign(prob.mesh.numVertices(), root);

    // Offline random insertion order. Fisher-Yates is inherently
    // sequential, but drawing from a dedicated counter-based stream
    // keeps each swap index a pure function of (seed, step) — the
    // shuffle cannot be perturbed by any other consumer of the seed.
    constexpr std::uint64_t kShuffleStream = 0x73687566666c65ULL; // "shuffle"
    support::CounterPrng rng(seed, kShuffleStream);
    for (std::size_t i = prob.insertOrder.size(); i > 1; --i)
        std::swap(prob.insertOrder[i - 1],
                  prob.insertOrder[rng.nextBounded(i)]);

    std::size_t warmup = 4;
    while (warmup * warmup < prob.insertOrder.size())
        ++warmup;
    prob.serialPrefix = std::min(prob.insertOrder.size(), 4 * warmup);
}

RunReport
insertRange(Problem& prob, std::size_t begin, std::size_t end,
            const Config& cfg)
{
    geom::Mesh& mesh = prob.mesh;

    auto op = [&](VertId& p, Context<VertId>& ctx) {
        DtState* s = ctx.savedState<DtState>();
        if (!s) {
            ctx.acquire(prob.pointLocks[p]);
            const TriId start = prob.pointTri[p];
            DtState fresh;
            buildCavity(
                mesh, start, mesh.point(p), fresh.cav,
                [&](TriId t) { ctx.acquire(mesh.tri(t).lock); },
                /*detect_escape=*/false);
            for (TriId d : fresh.cav.dead) {
                for (VertId q : mesh.tri(d).bucket) {
                    if (q == p)
                        continue;
                    ctx.acquire(prob.pointLocks[q]);
                    fresh.moved.push_back(q);
                }
            }
            s = &ctx.saveState<DtState>(std::move(fresh));
        }
        if (ctx.tryCautiousPoint())
            return;

        std::vector<TriId> created;
        geom::retriangulate(mesh, s->cav, p, created);
        for (VertId q : s->moved) {
            const TriId t = placePoint(mesh, created, mesh.point(q));
            mesh.tri(t).bucket.push_back(q);
            prob.pointTri[q] = t;
        }
    };

    const std::vector<VertId> range(
        prob.insertOrder.begin() + static_cast<long>(begin),
        prob.insertOrder.begin() + static_cast<long>(end));
    return forEach(range, op, cfg);
}

RunReport
triangulate(Problem& prob, const Config& cfg)
{
    // Serial warm-up prefix, then the configured executor on the rest.
    const std::size_t n = prob.insertOrder.size();
    const std::size_t prefix = std::min(prob.serialPrefix, n);
    RunReport warmup;
    if (prefix > 0) {
        Config serial_cfg;
        serial_cfg.exec = Exec::Serial;
        warmup = insertRange(prob, 0, prefix, serial_cfg);
    }
    RunReport report = insertRange(prob, prefix, n, cfg);
    // The serial warm-up has no rounds, trace or digest, so merging it
    // adds its counters and time and leaves the schedule fields as the
    // configured executor produced them.
    report.merge(warmup);
    return report;
}

bool
validate(const Problem& prob)
{
    if (!prob.mesh.checkConsistency())
        return false;
    if (!prob.mesh.checkDelaunay(kNumSuperVerts))
        return false;
    return prob.mesh.numAliveTriangles() ==
           expectedTriangles(prob.insertOrder.size());
}

std::size_t
expectedTriangles(std::size_t num_points)
{
    // Triangulation of n points + 3 super vertices whose hull is the
    // super triangle: 2 * (n + 3) - 2 - 3 faces.
    return 2 * (num_points + 3) - 5;
}

} // namespace galois::apps::dt
