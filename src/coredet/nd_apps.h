/**
 * @file
 * Non-deterministic "pthread-style" PBBS programs, instrumented for the
 * CoreDet experiment (Section 5.2 / Figure 6).
 *
 * The paper takes the non-deterministic versions of the PBBS programs,
 * replaces their Cilk/OpenMP runtime with a plain threads runtime, and
 * runs them with and without CoreDet. Correspondingly, each kernel here
 * is templated over a scheduler policy:
 *
 *  - coredet::RawScheduler  -> ordinary threaded execution ("without"),
 *  - coredet::DmpScheduler  -> deterministic quantum/serial-mode
 *                              execution ("with CoreDet").
 *
 * All shared-memory communication goes through sched.sync(...); thread-
 * private computation is accounted with sched.work(n). The irregular
 * kernels (bfs, dt, dmr) synchronize per edge / per lock — orders of
 * magnitude more often than the data-parallel mis — which is exactly the
 * property that makes deterministic thread scheduling collapse on them.
 */

#ifndef DETGALOIS_COREDET_ND_APPS_H
#define DETGALOIS_COREDET_ND_APPS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "apps/dmr.h"
#include "apps/dt.h"
#include "coredet/coredet.h"
#include "geom/cavity.h"
#include "graph/csr_graph.h"

namespace galois::coredet {

// ---------------------------------------------------------------------
// nd-bfs: frontier BFS with per-edge CAS claims (PBBS ndBFS style)
// ---------------------------------------------------------------------

/**
 * Non-deterministic BFS: frontier nodes are processed in parallel; a
 * neighbor is claimed with a CAS on its distance and appended to the next
 * frontier through a shared cursor. Distances are deterministic (they are
 * the unique BFS levels); the parent choices and frontier order are not.
 */
template <typename Sched, typename NodeData>
std::vector<std::uint32_t>
ndBfs(Sched& sched, const graph::CsrGraph<NodeData>& g, graph::Node source,
      unsigned threads)
{
    constexpr std::uint32_t kInf = ~std::uint32_t(0);
    const graph::Node n = g.numNodes();

    std::vector<std::atomic<std::uint32_t>> dist(n);
    for (graph::Node v = 0; v < n; ++v)
        dist[v].store(kInf, std::memory_order_relaxed);
    dist[source].store(0, std::memory_order_relaxed);

    std::vector<graph::Node> frontier{source};
    std::vector<graph::Node> next(n);
    std::atomic<std::size_t> next_count{0};
    std::atomic<std::size_t> cursor{0};

    std::uint32_t level = 0;
    while (!frontier.empty()) {
        ++level;
        next_count.store(0, std::memory_order_relaxed);
        cursor.store(0, std::memory_order_relaxed);

        sched.run([&](unsigned) {
            constexpr std::size_t kBlock = 64;
            for (;;) {
                // Shared grab of a block of frontier slots.
                const std::size_t begin = sched.sync([&] {
                    return cursor.fetch_add(kBlock,
                                            std::memory_order_relaxed);
                });
                if (begin >= frontier.size())
                    break;
                const std::size_t end =
                    std::min(frontier.size(), begin + kBlock);
                for (std::size_t i = begin; i < end; ++i) {
                    const graph::Node u = frontier[i];
                    for (graph::Node v : g.neighbors(u)) {
                        sched.work(1);
                        if (dist[v].load(std::memory_order_relaxed) !=
                            kInf) {
                            continue;
                        }
                        // Claim v (one sync per discovered edge).
                        const bool claimed = sched.sync([&] {
                            std::uint32_t expect = kInf;
                            return dist[v].compare_exchange_strong(
                                expect, level,
                                std::memory_order_acq_rel);
                        });
                        if (claimed) {
                            const std::size_t slot = sched.sync([&] {
                                return next_count.fetch_add(
                                    1, std::memory_order_relaxed);
                            });
                            next[slot] = v;
                        }
                    }
                }
            }
        });

        frontier.assign(next.begin(),
                        next.begin() + static_cast<long>(
                                           next_count.load()));
    }
    (void)threads;

    std::vector<std::uint32_t> out(n);
    for (graph::Node v = 0; v < n; ++v)
        out[v] = dist[v].load(std::memory_order_relaxed);
    return out;
}

// ---------------------------------------------------------------------
// nd-mis: data-parallel rounds (the PBBS mis program)
// ---------------------------------------------------------------------

/**
 * Data-parallel MIS (lexicographically-first fixpoint). Communication is
 * one shared cursor grab per block and a round barrier — the low-sync
 * profile that lets this kernel scale even under deterministic thread
 * scheduling (the paper's one positive CoreDet result).
 */
template <typename Sched, typename NodeData>
std::vector<std::uint8_t>
ndMis(Sched& sched, const graph::CsrGraph<NodeData>& g, unsigned threads)
{
    enum : std::uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };
    const graph::Node n = g.numNodes();
    std::vector<std::uint8_t> status(n, kUndecided);
    std::vector<std::uint8_t> next_status(n, kUndecided);

    std::vector<graph::Node> remaining(n);
    for (graph::Node v = 0; v < n; ++v)
        remaining[v] = v;
    (void)threads;

    while (!remaining.empty()) {
        std::atomic<std::size_t> cursor{0};
        sched.run([&](unsigned) {
            constexpr std::size_t kBlock = 256;
            for (;;) {
                const std::size_t begin = sched.sync([&] {
                    return cursor.fetch_add(kBlock,
                                            std::memory_order_relaxed);
                });
                if (begin >= remaining.size())
                    break;
                const std::size_t end =
                    std::min(remaining.size(), begin + kBlock);
                for (std::size_t i = begin; i < end; ++i) {
                    const graph::Node v = remaining[i];
                    std::uint8_t decision = kIn;
                    for (graph::Node u : g.neighbors(v)) {
                        sched.work(1);
                        if (u >= v)
                            continue;
                        if (status[u] == kIn) {
                            decision = kOut;
                            break;
                        }
                        if (status[u] == kUndecided)
                            decision = kUndecided;
                    }
                    next_status[v] = decision;
                }
            }
        });

        std::vector<graph::Node> keep;
        for (graph::Node v : remaining) {
            if (next_status[v] == kUndecided)
                keep.push_back(v);
            else
                status[v] = next_status[v];
        }
        remaining.swap(keep);
    }
    return status;
}

// ---------------------------------------------------------------------
// nd-dmr / nd-dt: lock-based speculative mesh kernels
// ---------------------------------------------------------------------

/**
 * Non-deterministic Delaunay mesh refinement over explicit per-triangle
 * locks: a worker pops a bad triangle, locks its cavity triangle by
 * triangle (test-and-set through sync), and retries from scratch on
 * conflict. Every lock acquisition and release is a synchronization —
 * the worst possible profile for deterministic thread scheduling.
 */
template <typename Sched>
std::uint64_t
ndRefine(Sched& sched, apps::dmr::Problem& prob, unsigned threads)
{
    geom::Mesh& mesh = prob.mesh;

    struct NdOwner : runtime::MarkOwner
    {};
    std::vector<NdOwner> owners(
        support::ThreadPool::get().maxThreads());

    std::vector<geom::TriId> initial = apps::dmr::badTriangles(prob);
    // The queue is guarded by queueLock, taken inside the sync of each
    // queue operation: CoreDet's sync serializes, but RawScheduler::sync
    // runs its body unsynchronized, and concurrent push_backs would race
    // on reallocation. One sync per operation keeps Fig. 6's profile.
    std::vector<geom::TriId> queue = initial;
    std::size_t head = 0;
    std::mutex queueLock;
    std::atomic<std::uint64_t> pending{initial.size()};
    std::atomic<std::uint64_t> refined{0};
    (void)threads;

    sched.run([&](unsigned tid) {
        NdOwner* owner = &owners[tid];
        std::vector<runtime::Lockable*> held;
        geom::Cavity cav;
        unsigned retries = 0;

        auto release_all = [&] {
            sched.sync([&] {
                for (runtime::Lockable* l : held)
                    l->releaseIfOwner(owner);
            });
            held.clear();
        };

        struct Conflict
        {};

        for (;;) {
            geom::TriId task = geom::kNoTri;
            const bool got = sched.sync([&] {
                const std::lock_guard<std::mutex> guard(queueLock);
                if (head < queue.size()) {
                    task = queue[head++];
                    return true;
                }
                return false;
            });
            if (!got) {
                if (pending.load(std::memory_order_acquire) == 0)
                    break;
                sched.work(32);
                continue;
            }

            try {
                auto acquire = [&](geom::TriId t) {
                    runtime::Lockable& l = mesh.tri(t).lock;
                    if (l.owner(std::memory_order_relaxed) == owner)
                        return;
                    const bool ok =
                        sched.sync([&] { return l.tryAcquire(owner); });
                    if (!ok)
                        throw Conflict{};
                    held.push_back(&l);
                };

                acquire(task);
                if (!mesh.tri(task).alive) {
                    release_all();
                    pending.fetch_sub(1, std::memory_order_acq_rel);
                    continue;
                }
                geom::Point center = mesh.circumcenterOf(task);
                bool split = false;
                if (!buildCavity(mesh, task, center, cav, acquire,
                                 true)) {
                    // Encroached boundary segment: insert its midpoint
                    // instead (always succeeds on a convex domain).
                    split = true;
                    const auto [a, b] =
                        mesh.edgeVerts(cav.escapeTri, cav.escapeEdge);
                    center =
                        geom::midpoint(mesh.point(a), mesh.point(b));
                    buildCavity(mesh, cav.escapeTri, center, cav,
                                acquire, false);
                }
                sched.work(16);
                std::vector<geom::TriId> created;
                {
                    const geom::VertId nv = mesh.addVertex(center);
                    geom::retriangulate(mesh, cav, nv, created);
                    refined.fetch_add(1, std::memory_order_relaxed);
                }
                std::uint64_t new_tasks = 0;
                sched.sync([&] {
                    const std::lock_guard<std::mutex> guard(queueLock);
                    for (geom::TriId t : created) {
                        if (mesh.minAngle(t) < prob.minAngleDeg) {
                            queue.push_back(t);
                            ++new_tasks;
                        }
                    }
                    // A segment split can leave the original bad
                    // triangle standing; re-queue it.
                    if (split && mesh.tri(task).alive) {
                        queue.push_back(task);
                        ++new_tasks;
                    }
                });
                pending.fetch_add(new_tasks, std::memory_order_acq_rel);
                release_all();
                pending.fetch_sub(1, std::memory_order_acq_rel);
                retries = 0;
            } catch (const Conflict&) {
                release_all();
                // Re-enqueue and retry later. The backoff is
                // tid-asymmetric and escalating: under deterministic
                // scheduling two conflicting workers would otherwise
                // retry in lockstep forever.
                sched.sync([&] {
                    const std::lock_guard<std::mutex> guard(queueLock);
                    queue.push_back(task);
                });
                ++retries;
                sched.backoffRounds((1u + tid)
                                    << std::min(retries, 10u));
            }
        }
    });

    return refined.load();
}

/**
 * Non-deterministic incremental Delaunay triangulation with the same
 * lock-per-element speculation (point locks + cavity triangle locks).
 */
template <typename Sched>
std::uint64_t
ndTriangulate(Sched& sched, apps::dt::Problem& prob, unsigned threads)
{
    geom::Mesh& mesh = prob.mesh;

    struct NdOwner : runtime::MarkOwner
    {};
    std::vector<NdOwner> owners(
        support::ThreadPool::get().maxThreads());

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::uint64_t> inserted{0};
    std::vector<std::size_t> retry_slots; // unused; retries loop in place
    (void)threads;
    (void)retry_slots;

    sched.run([&](unsigned tid) {
        NdOwner* owner = &owners[tid];
        std::vector<runtime::Lockable*> held;

        struct Conflict
        {};

        auto release_all = [&] {
            sched.sync([&] {
                for (runtime::Lockable* l : held)
                    l->releaseIfOwner(owner);
            });
            held.clear();
        };

        for (;;) {
            const std::size_t i = sched.sync([&] {
                return cursor.fetch_add(1, std::memory_order_relaxed);
            });
            if (i >= prob.insertOrder.size())
                break;
            const geom::VertId p = prob.insertOrder[i];

            // Retry the same point until it commits.
            unsigned retries = 0;
            for (;;) {
                try {
                    auto acquire_lock = [&](runtime::Lockable& l) {
                        if (l.owner(std::memory_order_relaxed) == owner)
                            return;
                        const bool ok = sched.sync(
                            [&] { return l.tryAcquire(owner); });
                        if (!ok)
                            throw Conflict{};
                        held.push_back(&l);
                    };

                    acquire_lock(prob.pointLocks[p]);
                    geom::Cavity cav;
                    std::vector<geom::VertId> moved;
                    buildCavity(
                        mesh, prob.pointTri[p], mesh.point(p), cav,
                        [&](geom::TriId t) {
                            acquire_lock(mesh.tri(t).lock);
                        },
                        false);
                    for (geom::TriId d : cav.dead) {
                        for (geom::VertId q : mesh.tri(d).bucket) {
                            if (q == p)
                                continue;
                            acquire_lock(prob.pointLocks[q]);
                            moved.push_back(q);
                        }
                    }

                    std::vector<geom::TriId> created;
                    geom::retriangulate(mesh, cav, p, created);
                    for (geom::VertId q : moved) {
                        geom::TriId home = created.front();
                        for (geom::TriId t : created) {
                            if (mesh.contains(t, mesh.point(q))) {
                                home = t;
                                break;
                            }
                        }
                        mesh.tri(home).bucket.push_back(q);
                        prob.pointTri[q] = home;
                    }
                    inserted.fetch_add(1, std::memory_order_relaxed);
                    release_all();
                    break;
                } catch (const Conflict&) {
                    release_all();
                    ++retries;
                    // Exponential, tid-asymmetric backoff. The early
                    // insertions contend on the *entire* root bucket, so
                    // without escalation two workers evict each other's
                    // point locks in lockstep forever.
                    sched.backoffRounds((1u + tid)
                                        << std::min(retries, 12u));
                }
            }
        }
    });

    return inserted.load();
}

} // namespace galois::coredet

#endif // DETGALOIS_COREDET_ND_APPS_H
