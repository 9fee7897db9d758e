#include "apps/pfp.h"

#include <deque>

namespace galois::apps::pfp {

namespace {

/**
 * Global relabeling: exact residual distances to the sink (and, for nodes
 * that cannot reach the sink, numNodes + distance from the source) via
 * reverse BFS. This is the convergence heuristic of Goldberg-Tarjan.
 */
void
globalRelabel(Graph& g, graph::Node source, graph::Node sink)
{
    const std::uint32_t n = g.numNodes();
    const std::uint32_t unset = 2 * n + 1;
    for (graph::Node v = 0; v < n; ++v)
        g.data(v).height = unset;

    // Phase 1: distance to sink through edges with residual capacity
    // *towards* the sink: edge (v -> u) relaxes v when residual(v,u) > 0,
    // i.e. we traverse the reverse of residual edges from the sink.
    std::deque<graph::Node> queue;
    g.data(sink).height = 0;
    queue.push_back(sink);
    while (!queue.empty()) {
        const graph::Node u = queue.front();
        queue.pop_front();
        const std::uint32_t d = g.data(u).height + 1;
        for (std::uint64_t e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
            const graph::Node v = g.dst(e);
            // The twin (v -> u) must have residual capacity.
            if (g.edgeData(g.reverseEdge(e)) > 0 &&
                g.data(v).height == unset && v != source) {
                g.data(v).height = d;
                queue.push_back(v);
            }
        }
    }

    // Phase 2: nodes cut off from the sink drain back to the source;
    // give them n + (distance from source in the residual graph).
    g.data(source).height = n;
    queue.push_back(source);
    while (!queue.empty()) {
        const graph::Node u = queue.front();
        queue.pop_front();
        const std::uint32_t d = g.data(u).height + 1;
        for (std::uint64_t e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
            const graph::Node v = g.dst(e);
            if (g.edgeData(g.reverseEdge(e)) > 0 &&
                g.data(v).height == unset) {
                g.data(v).height = d;
                queue.push_back(v);
            }
        }
    }

    // Anything still unreached holds no excess and never will; park it
    // above every reachable height.
    for (graph::Node v = 0; v < n; ++v)
        if (g.data(v).height == unset)
            g.data(v).height = 2 * n;
}

/** Saturate all source edges; returns the initially active nodes. */
std::vector<graph::Node>
saturateSource(Graph& g, graph::Node source, graph::Node sink)
{
    std::vector<graph::Node> active;
    for (std::uint64_t e = g.edgeBegin(source); e < g.edgeEnd(source);
         ++e) {
        const std::int64_t cap = g.edgeData(e);
        if (cap <= 0)
            continue;
        const graph::Node v = g.dst(e);
        g.edgeData(e) = 0;
        g.edgeData(g.reverseEdge(e)) += cap;
        g.data(v).excess += cap;
        if (v != sink && v != source && !g.data(v).queued) {
            g.data(v).queued = true;
            active.push_back(v);
        }
    }
    return active;
}

/**
 * Fully discharge node u: push admissible flow, relabel when stuck.
 * Invokes activate(v) for every neighbor that transitions to positive
 * excess. Returns the number of relabel operations performed.
 */
template <typename ActivateFn>
std::uint64_t
discharge(Graph& g, graph::Node u, graph::Node source, graph::Node sink,
          ActivateFn&& activate)
{
    std::uint64_t relabels = 0;
    const std::uint32_t height_cap = 2 * g.numNodes();
    while (g.data(u).excess > 0) {
        bool pushed = false;
        const std::uint32_t hu = g.data(u).height;
        for (std::uint64_t e = g.edgeBegin(u);
             e < g.edgeEnd(u) && g.data(u).excess > 0; ++e) {
            if (g.edgeData(e) <= 0)
                continue;
            const graph::Node v = g.dst(e);
            if (hu != g.data(v).height + 1)
                continue;
            const std::int64_t delta =
                std::min(g.data(u).excess, g.edgeData(e));
            g.edgeData(e) -= delta;
            g.edgeData(g.reverseEdge(e)) += delta;
            g.data(u).excess -= delta;
            g.data(v).excess += delta;
            pushed = true;
            if (v != source && v != sink)
                activate(v);
        }
        if (g.data(u).excess == 0)
            break;
        if (!pushed) {
            // Relabel: one above the lowest residual neighbor.
            std::uint32_t min_h = height_cap;
            for (std::uint64_t e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
                if (g.edgeData(e) > 0)
                    min_h = std::min(min_h, g.data(g.dst(e)).height);
            }
            if (min_h >= height_cap)
                break; // no residual edges at all: nothing more to do
            g.data(u).height = min_h + 1;
            ++relabels;
            if (g.data(u).height >= height_cap)
                break; // theory bound: height < 2n; stop defensively
        }
    }
    return relabels;
}

} // namespace

FlowResult
serialHiPr(Graph& g, graph::Node source, graph::Node sink)
{
    resetNodes(g);
    globalRelabel(g, source, sink);
    std::deque<graph::Node> fifo;
    for (graph::Node v : saturateSource(g, source, sink))
        fifo.push_back(v);

    // Re-run the global relabel every numNodes relabels (hi_pr style).
    const std::uint64_t relabel_interval = g.numNodes();
    std::uint64_t relabels_since = 0;

    while (!fifo.empty()) {
        const graph::Node u = fifo.front();
        fifo.pop_front();
        g.data(u).queued = false;
        relabels_since +=
            discharge(g, u, source, sink, [&](graph::Node v) {
                if (!g.data(v).queued) {
                    g.data(v).queued = true;
                    fifo.push_back(v);
                }
            });
        if (relabels_since >= relabel_interval) {
            relabels_since = 0;
            globalRelabel(g, source, sink);
        }
    }

    FlowResult r;
    r.value = g.data(sink).excess;
    return r;
}

FlowResult
galoisPfp(Graph& g, graph::Node source, graph::Node sink, const Config& cfg)
{
    // Phased preflow-push built around the global relabeling heuristic:
    // within a phase, heights are fixed and tasks only push along
    // admissible (strictly downhill) residual edges, activating the
    // receivers — flow cannot cycle, so each phase terminates. Between
    // phases an exact global relabel (reverse BFS) refreshes the heights
    // of every node still carrying excess. This is the role global
    // relabeling plays in the paper's pfp; it avoids the enormous local-
    // relabel task counts a one-shot initialization would cause.
    resetNodes(g);
    globalRelabel(g, source, sink);
    std::vector<graph::Node> active = saturateSource(g, source, sink);

    auto op = [&](graph::Node& u, Context<graph::Node>& ctx) {
        ctx.acquire(g.lock(u));
        for (graph::Node v : g.neighbors(u))
            ctx.acquire(g.lock(v));
        if (ctx.tryCautiousPoint())
            return;
        g.data(u).queued = false;
        const std::uint32_t hu = g.data(u).height;
        for (std::uint64_t e = g.edgeBegin(u);
             e < g.edgeEnd(u) && g.data(u).excess > 0; ++e) {
            if (g.edgeData(e) <= 0)
                continue;
            const graph::Node v = g.dst(e);
            if (hu != g.data(v).height + 1)
                continue;
            const std::int64_t delta =
                std::min(g.data(u).excess, g.edgeData(e));
            g.edgeData(e) -= delta;
            g.edgeData(g.reverseEdge(e)) += delta;
            g.data(u).excess -= delta;
            g.data(v).excess += delta;
            if (v != source && v != sink && !g.data(v).queued) {
                g.data(v).queued = true;
                // Pre-assigned ids (Section 3.3): activations are drawn
                // from the fixed node set, so the node id serves as a
                // deterministic task id (+1: id 0 is reserved).
                ctx.push(v, static_cast<std::uint64_t>(v) + 1);
            }
        }
        // Remaining excess means no admissible edge: the node waits for
        // the next phase's global relabel.
    };

    FlowResult r;
    const std::uint32_t height_cap = 2 * g.numNodes();
    while (!active.empty()) {
        // One report for the whole multi-phase run: rounds and the trace
        // timeline continue across phases, and the per-phase schedule
        // digests chain into one portable fingerprint (0 under non-det
        // executors).
        r.report.merge(forEach(active, op, cfg));

        // Refresh heights and gather the still-active nodes in id order
        // (deterministic).
        globalRelabel(g, source, sink);
        active.clear();
        for (graph::Node v = 0; v < g.numNodes(); ++v) {
            if (v == source || v == sink)
                continue;
            if (g.data(v).excess > 0 && g.data(v).height < height_cap) {
                g.data(v).queued = true;
                active.push_back(v);
            } else {
                g.data(v).queued = false;
            }
        }
    }
    r.value = g.data(sink).excess;
    return r;
}

void
resetNodes(Graph& g)
{
    for (graph::Node v = 0; v < g.numNodes(); ++v)
        g.data(v) = NodeData{};
}

bool
isMaxFlow(const Graph& g, graph::Node source, graph::Node sink)
{
    // Conservation: all excess must be at the source or the sink.
    for (graph::Node v = 0; v < g.numNodes(); ++v) {
        if (v != source && v != sink && g.data(v).excess != 0)
            return false;
        for (std::uint64_t e = g.edgeBegin(v); e < g.edgeEnd(v); ++e)
            if (g.edgeData(e) < 0)
                return false; // residual capacity must stay non-negative
    }
    // Maximality: no augmenting path source -> sink in the residual
    // graph (max-flow/min-cut certificate).
    std::vector<bool> seen(g.numNodes(), false);
    std::deque<graph::Node> queue{source};
    seen[source] = true;
    while (!queue.empty()) {
        const graph::Node u = queue.front();
        queue.pop_front();
        for (std::uint64_t e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
            const graph::Node v = g.dst(e);
            if (g.edgeData(e) > 0 && !seen[v]) {
                if (v == sink)
                    return false;
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    return true;
}

} // namespace galois::apps::pfp
