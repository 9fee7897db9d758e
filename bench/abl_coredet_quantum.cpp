/**
 * @file
 * Ablation: sensitivity of deterministic thread scheduling to the
 * quantum (task-size) parameter.
 *
 * The paper (Section 6, citing Devietti et al.) notes that quantum-based
 * systems' overheads vary by 160%-250% with the task-size parameter and
 * that CoreDet/Kendo/Determinator provide no adaptive way to set it —
 * one of the motivations for DIG's parameterless window. This ablation
 * sweeps the quantum on a coarse-grain kernel (blackscholes on the
 * DmpScheduler, against the RawScheduler) and a fine-grain one (the bfs
 * operator under Exec::CoreDet with Config::coredet.quantum, against
 * Exec::NonDet) and reports the slowdown vs plain execution: the best
 * quantum differs by workload, and bad choices are expensive.
 */

#include <cstdio>

#include "apps/bfs.h"
#include "coredet/coredet.h"
#include "graph/generators.h"
#include "harness.h"
#include "parsec/blackscholes.h"

using namespace galois;
using namespace galois::bench;

int
main(int argc, char** argv)
{
    applyCliOverrides(argc, argv);
    const Settings s = settings();
    const unsigned threads = std::min(4u, s.threads.back());
    banner("Ablation: CoreDet quantum size",
           "Slowdown of deterministic thread scheduling vs plain "
           "execution as a function of the quantum parameter.");

    const auto portfolio = parsec::randomPortfolio(
        static_cast<std::size_t>(30000 * s.scale), 0xd1);
    const auto n = static_cast<graph::Node>(15000 * s.scale);
    auto edges = graph::randomKOut(n, 5, 0xd2, true);
    apps::bfs::Graph g(n, edges);

    const double bs_plain = timeIt(
        [&] {
            coredet::RawScheduler sch(threads);
            std::vector<double> p;
            priceAll(sch, portfolio, 3, p);
        },
        s.reps);
    // The bfs operator loop, timed by its own RunReport.
    auto bfs_seconds = [&](Exec exec, std::uint64_t quantum) {
        std::vector<double> xs;
        for (int r = 0; r < s.reps; ++r) {
            apps::bfs::reset(g);
            Config cfg;
            cfg.exec = exec;
            cfg.threads = threads;
            cfg.coredet.quantum = quantum;
            xs.push_back(apps::bfs::galoisBfs(g, 0, cfg).seconds);
        }
        return median(std::move(xs));
    };
    const double bfs_plain = bfs_seconds(Exec::NonDet, /*unused*/ 0);

    Table table({"quantum", "bs slowdown", "g-bfs slowdown"});
    for (std::uint64_t quantum :
         {1000ULL, 10000ULL, 100000ULL, 1000000ULL}) {
        const double bs = timeIt(
            [&] {
                coredet::DmpScheduler sch(threads, quantum);
                std::vector<double> p;
                priceAll(sch, portfolio, 3, p);
            },
            s.reps);
        const double bfs = bfs_seconds(Exec::CoreDet, quantum);
        table.addRow({std::to_string(quantum), fmtX(bs / bs_plain),
                      fmtX(bfs / bfs_plain)});
    }
    table.print();
    std::printf("\nPaper context: quantum-based systems' overheads vary "
                "160%%-250%% with this parameter, and no deterministic "
                "thread scheduler sets it adaptively.\n");
    return 0;
}
