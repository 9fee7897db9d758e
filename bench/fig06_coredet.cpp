/**
 * @file
 * Figure 6: determinism by thread scheduling (CoreDet-style) on PARSEC
 * kernels and the PBBS programs.
 *
 * Each program runs without and with deterministic thread scheduling;
 * the table shows the slowdown (t_coredet / t_plain) at each thread
 * count. The PARSEC kernels and the data-parallel nd-mis run on the
 * RawScheduler ("without CoreDet") and the quantum/serial-mode
 * DmpScheduler ("with CoreDet"). The irregular programs are the apps'
 * own operators (g-bfs, g-dmr, g-dt) under Exec::NonDet ("without") and
 * Exec::CoreDet ("with"), which serializes every mark acquisition
 * through the same DMP token. Paper shape: blackscholes is barely
 * affected; bodytrack/freqmine show limited impact; the irregular
 * programs slow down massively (median 3.7X, max 55X across the suite)
 * because each of their fine-grain synchronizations costs a full
 * deterministic round — only the data-parallel mis survives.
 */

#include <cstdio>
#include <functional>

#include "apps/bfs.h"
#include "apps/dmr.h"
#include "apps/dt.h"
#include "apps/mis.h"
#include "coredet/coredet.h"
#include "coredet/nd_apps.h"
#include "graph/generators.h"
#include "harness.h"
#include "parsec/blackscholes.h"
#include "parsec/bodytrack_like.h"
#include "parsec/freqmine_like.h"

using namespace galois;
using namespace galois::bench;

namespace {

/** Quantum size: CoreDet's tunable (performance-only) parameter. */
constexpr std::uint64_t kQuantum = 50000;

struct Program
{
    std::string name;
    /** Seconds of one run on `threads` threads, with deterministic
     *  scheduling when `det` is set. */
    std::function<double(unsigned threads, bool det)> run;
};

/** A kernel templated over the scheduler policy, timed whole
 *  (scheduler construction included) on RawScheduler or DmpScheduler. */
template <typename Kernel>
Program
scheduled(std::string name, Kernel kernel)
{
    return {std::move(name), [kernel](unsigned threads, bool det) {
                support::Timer t;
                t.start();
                if (det) {
                    coredet::DmpScheduler sch(threads, kQuantum);
                    kernel(sch);
                } else {
                    coredet::RawScheduler sch(threads);
                    kernel(sch);
                }
                t.stop();
                return t.seconds();
            }};
}

/** An app's operator loop under Exec::NonDet or Exec::CoreDet, timed by
 *  the loop's own RunReport (input construction excluded). */
Program
onBackends(std::string name, std::function<RunReport(const Config&)> app)
{
    return {std::move(name), [app](unsigned threads, bool det) {
                Config cfg;
                cfg.exec = det ? Exec::CoreDet : Exec::NonDet;
                cfg.threads = threads;
                cfg.coredet.quantum = kQuantum;
                return app(cfg).seconds;
            }};
}

double
medianSeconds(const Program& prog, unsigned threads, bool det, int reps)
{
    std::vector<double> xs;
    for (int r = 0; r < reps; ++r)
        xs.push_back(prog.run(threads, det));
    return median(std::move(xs));
}

} // namespace

int
main(int argc, char** argv)
{
    applyCliOverrides(argc, argv);
    const Settings s = settings();
    banner("Figure 6",
           "Slowdown of CoreDet-style deterministic thread scheduling "
           "(t_coredet / t_plain) per thread count.");

    // Inputs (smaller than the other figures: the deterministic runs of
    // the irregular kernels are extremely slow — that is the point).
    const auto bs_portfolio = parsec::randomPortfolio(
        static_cast<std::size_t>(50000 * s.scale), 0xc1);
    const auto bt_problem = parsec::makeTrackingProblem(
        static_cast<std::size_t>(10 * s.scale) + 3, 0xc2);
    const std::size_t bt_particles =
        static_cast<std::size_t>(1000 * s.scale) + 64;
    const auto fm_db = parsec::makeItemsetDb(
        static_cast<std::size_t>(8000 * s.scale), 300, 8, 0xc3);

    const auto bfs_n =
        static_cast<graph::Node>(20000 * s.scale);
    auto bfs_edges = graph::randomKOut(bfs_n, 5, 0xc4, true);
    apps::bfs::Graph bfs_graph(bfs_n, bfs_edges);
    apps::mis::Graph mis_graph(bfs_n,
                               graph::randomKOut(bfs_n, 5, 0xc5, true));

    const std::size_t dt_points =
        static_cast<std::size_t>(3000 * s.scale);
    const std::size_t dmr_points =
        static_cast<std::size_t>(1000 * s.scale);

    std::vector<Program> programs;
    programs.push_back(scheduled("bs", [&](auto& sch) {
        std::vector<double> p;
        priceAll(sch, bs_portfolio, 3, p);
    }));
    programs.push_back(scheduled("bt", [&](auto& sch) {
        (void)trackBody(sch, bt_problem, bt_particles, 0xc6);
    }));
    programs.push_back(scheduled(
        "fm", [&](auto& sch) { (void)mineFrequent(sch, fm_db, 10); }));
    programs.push_back(onBackends("g-bfs", [&](const Config& cfg) {
        apps::bfs::reset(bfs_graph);
        return apps::bfs::galoisBfs(bfs_graph, 0, cfg);
    }));
    programs.push_back(scheduled("nd-mis", [&](auto& sch) {
        (void)coredet::ndMis(sch, mis_graph);
    }));
    programs.push_back(onBackends("g-dt", [&](const Config& cfg) {
        apps::dt::Problem prob;
        apps::dt::makeProblem(apps::dt::randomPoints(dt_points, 0xc7), 0xc8,
                              prob);
        return apps::dt::triangulate(prob, cfg);
    }));
    programs.push_back(onBackends("g-dmr", [&](const Config& cfg) {
        apps::dmr::Problem prob;
        apps::dmr::makeProblem(dmr_points, 0xc9, prob);
        return apps::dmr::refine(prob, cfg);
    }));

    std::vector<std::string> headers{"program"};
    for (unsigned t : s.threads)
        headers.push_back("T=" + std::to_string(t) + " slowdown");
    Table table(headers);

    std::vector<double> max_thread_slowdowns;
    for (auto& prog : programs) {
        std::vector<std::string> row{prog.name};
        double last = 0;
        for (unsigned t : s.threads) {
            const double plain = medianSeconds(prog, t, false, s.reps);
            const double det = medianSeconds(prog, t, true, s.reps);
            last = det / plain;
            row.push_back(fmtX(last));
        }
        max_thread_slowdowns.push_back(last);
        table.addRow(row);
    }
    table.print();

    double lo = max_thread_slowdowns.front(), hi = lo;
    for (double v : max_thread_slowdowns) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::printf("\nAt max threads (paper: median 3.7X, min 1.3X, max "
                "55X): median %s, min %s, max %s\n",
                fmtX(median(max_thread_slowdowns)).c_str(),
                fmtX(lo).c_str(), fmtX(hi).c_str());
    return 0;
}
