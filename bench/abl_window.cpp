/**
 * @file
 * Ablation: the adaptive window policy vs hand-tuned fixed windows
 * (the paper's *parameterless* claim, Section 3.2).
 *
 * Kendo, CoreDet, Determinator and some PBBS programs expose a round- or
 * task-size parameter that must be tuned per machine; DIG's window
 * adapts from commit ratios alone. This ablation reintroduces the knob:
 * each application runs under several fixed window sizes W (Exec::DetRes
 * with roundSize == initialPrefix == W, which admits exactly W tasks
 * every round) and under the adaptive policy (Exec::Det). Expected
 * shape: the best fixed window differs per application (so no single
 * setting works), and the adaptive policy sits close to each
 * application's best fixed window without tuning.
 */

#include <cstdio>

#include "apps_common.h"
#include "harness.h"

#include "apps/bfs.h"
#include "apps/dmr.h"
#include "apps/dt.h"
#include "apps/mis.h"
#include "graph/generators.h"

using namespace galois;
using namespace galois::bench;

namespace {

struct Workload
{
    std::string name;
    std::function<double(const Config&)> run; //!< loop seconds
};

} // namespace

int
main(int argc, char** argv)
{
    applyCliOverrides(argc, argv);
    const Settings s = settings();
    const unsigned threads = s.threads.back();
    banner("Ablation: window policy",
           "Deterministic-executor time under fixed window sizes vs the "
           "adaptive (parameterless) policy.");

    // Inputs.
    const auto n = static_cast<graph::Node>(100000 * s.scale);
    auto bfs_edges = graph::randomKOut(n, 5, 0xab1, true);
    apps::bfs::Graph bfs_graph(n, bfs_edges);
    apps::mis::Graph mis_graph(n, graph::randomKOut(n, 5, 0xab2, true));
    const std::size_t dmr_points =
        static_cast<std::size_t>(6000 * s.scale);
    const auto dt_points = apps::dt::randomPoints(
        static_cast<std::size_t>(20000 * s.scale), 0xab3);

    std::vector<Workload> workloads;
    workloads.push_back({"bfs", [&](const Config& cfg) {
                             apps::bfs::reset(bfs_graph);
                             return apps::bfs::galoisBfs(bfs_graph, 0,
                                                         cfg)
                                 .seconds;
                         }});
    workloads.push_back({"mis", [&](const Config& cfg) {
                             apps::mis::reset(mis_graph);
                             return apps::mis::galoisMis(mis_graph, cfg)
                                 .seconds;
                         }});
    workloads.push_back({"dt", [&](const Config& cfg) {
                             apps::dt::Problem prob;
                             apps::dt::makeProblem(dt_points, 0xab4,
                                                   prob);
                             return apps::dt::triangulate(prob, cfg)
                                 .seconds;
                         }});
    workloads.push_back({"dmr", [&](const Config& cfg) {
                             apps::dmr::Problem prob;
                             apps::dmr::makeProblem(dmr_points, 0xab5,
                                                    prob);
                             return apps::dmr::refine(prob, cfg).seconds;
                         }});

    const std::vector<std::uint64_t> fixed{64, 512, 4096, 32768};
    std::vector<std::string> headers{"app"};
    for (auto w : fixed)
        headers.push_back("W=" + std::to_string(w));
    headers.push_back("adaptive");
    headers.push_back("adaptive vs best fixed");
    Table table(headers);

    for (auto& w : workloads) {
        std::vector<std::string> row{w.name};
        double best_fixed = 1e300;
        for (std::uint64_t win : fixed) {
            Config cfg;
            cfg.exec = Exec::DetRes;
            cfg.threads = threads;
            cfg.detres.roundSize = win;
            cfg.detres.initialPrefix = win;
            const double secs = timeIt([&] { (void)w.run(cfg); }, s.reps);
            best_fixed = std::min(best_fixed, secs);
            row.push_back(fmt(secs));
        }
        Config adaptive;
        adaptive.exec = Exec::Det;
        adaptive.threads = threads;
        const double secs =
            timeIt([&] { (void)w.run(adaptive); }, s.reps);
        row.push_back(fmt(secs));
        row.push_back(fmtX(best_fixed / secs));
        table.addRow(row);
    }
    table.print();
    std::printf("\n'adaptive vs best fixed' near 1.00X means the "
                "parameterless policy matches per-app hand tuning.\n");
    return 0;
}
