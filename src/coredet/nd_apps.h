/**
 * @file
 * The data-parallel PBBS mis program, instrumented for the CoreDet
 * experiment (Section 5.2 / Figure 6).
 *
 * The paper takes the non-deterministic versions of the PBBS programs,
 * replaces their Cilk/OpenMP runtime with a plain threads runtime, and
 * runs them with and without CoreDet. ndMis is templated over the
 * scheduler policy for that purpose:
 *
 *  - coredet::RawScheduler  -> ordinary threaded execution ("without"),
 *  - coredet::DmpScheduler  -> deterministic quantum/serial-mode
 *                              execution ("with CoreDet").
 *
 * All shared-memory communication goes through sched.sync(...); thread-
 * private computation is accounted with sched.work(n).
 *
 * The irregular programs (bfs, dmr, dt) need no copy here: Figure 6 runs
 * the apps' own operators under Exec::NonDet and Exec::CoreDet, whose
 * every mark acquisition is a serialized sync. mis stays because it is
 * the paper's one program that survives CoreDet, and only as this
 * data-parallel formulation: the operator mis under Exec::CoreDet
 * synchronizes per neighbor and collapses like the others (31-119X
 * against 1.5-3.0X for ndMis at 4 threads on a 4-vCPU host; see
 * EXPERIMENTS.md, Figure 6).
 */

#ifndef DETGALOIS_COREDET_ND_APPS_H
#define DETGALOIS_COREDET_ND_APPS_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "coredet/coredet.h"
#include "graph/csr_graph.h"

namespace galois::coredet {

/**
 * Data-parallel MIS (lexicographically-first fixpoint). Communication is
 * one shared cursor grab per block and a round barrier — the low-sync
 * profile that lets this kernel scale even under deterministic thread
 * scheduling (the paper's one positive CoreDet result).
 */
template <typename Sched, typename NodeData>
std::vector<std::uint8_t>
ndMis(Sched& sched, const graph::CsrGraph<NodeData>& g)
{
    enum : std::uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };
    const graph::Node n = g.numNodes();
    std::vector<std::uint8_t> status(n, kUndecided);
    std::vector<std::uint8_t> next_status(n, kUndecided);

    std::vector<graph::Node> remaining(n);
    for (graph::Node v = 0; v < n; ++v)
        remaining[v] = v;

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

} // namespace galois::coredet

#endif // DETGALOIS_COREDET_ND_APPS_H
