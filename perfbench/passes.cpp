/**
 * @file
 * The pass loop shared by graph-det and mesh-det.
 *
 * A pass runs every app of the workload once under Exec::Det. Each app
 * call is timed from outside (wall, getrusage) and its RunReport read
 * for phases and exact counters; verification runs after the call, so
 * it never sits inside a timed span. Every per-layer figure comes from
 * the same passes as the headline statistic it explains.
 */

#include "common.h"

namespace perfbench {

namespace {

/** Timings of the full-width passes that feed one set of statistics. */
struct PassStats
{
    Samples wall, cpu, verify;
    Samples assemble, inspect, fold, select, merge, unaccounted, entry,
        serialFrac;
    Samples user, sys, volCsw, involCsw;
    std::vector<Samples> app;
};

} // namespace

void
runPasses(const Options& opt, std::vector<DetApp>& apps, SetupTimes& setup,
          const std::function<void()>& perPassSetup, Report& rep,
          Spans& spans)
{
    galois::Config cfg;
    cfg.exec = galois::Exec::Det;

    std::vector<std::uint64_t> digest(apps.size(), 0);
    std::vector<bool> haveDigest(apps.size(), false);
    Counters counters;
    bool haveCounters = false;
    std::size_t gapsNegative = 0, gapsTrace = 0;
    std::string firstGap, firstTraceGap;

    PassStats traced, plain; // traced: trace-run passes with round spans
    traced.app.resize(apps.size());
    plain.app.resize(apps.size());
    Samples t1Wall;

    std::uint64_t passId = 0;
    // into: the statistics a full-width pass feeds (none for warm-up);
    // one-thread passes feed t1Wall.
    auto runPass = [&](unsigned threads, bool tracedPass, PassStats* into,
                       Samples* t1) {
        ++passId;
        if (perPassSetup)
            perPassSetup();
        cfg.threads = threads;
        cfg.traceRounds = tracedPass;
        const double passStart = now();
        const std::uint64_t passSpan =
            tracedPass ? spans.add(passId, 0, "pass", passStart, passStart)
                       : 0;
        double wall = 0, verify = 0, unacc = 0, entry = 0, serial = 0;
        galois::runtime::PhaseProfile ph;
        Usage use;
        Counters c;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            DetApp& app = apps[i];
            app.prepare();
            const Solve s = timedSolve([&] { return app.solve(cfg); });
            const double v0 = now();
            bool ok = app.check();
            const double v1 = now();
            if (!haveDigest[i]) {
                digest[i] = s.run.traceDigest;
                haveDigest[i] = true;
            }
            ok = ok && s.run.traceDigest == digest[i];
            rep.verify(ok, fmt("%s pass %llu at %u threads", app.name.c_str(),
                               static_cast<unsigned long long>(passId),
                               threads));

            const auto& p = s.run.phases;
            const double sum = phaseSum(s.run);
            wall += s.wall;
            verify += v1 - v0;
            unacc += s.wall - sum;
            entry += s.wall - s.run.seconds;
            serial += p.assembleSeconds + p.foldSeconds + p.mergeSeconds;
            ph.assembleSeconds += p.assembleSeconds;
            ph.inspectSeconds += p.inspectSeconds;
            ph.foldSeconds += p.foldSeconds;
            ph.selectSeconds += p.selectSeconds;
            ph.mergeSeconds += p.mergeSeconds;
            use += s.usage;
            c.add(s.run);
            if (into)
                into->app[i].add(s.wall);

            // Reconciliation: the outside wall splits into Σphases,
            // loop time outside the phases and entry overhead; none of
            // the splits may be negative beyond the tolerance.
            if (!fitsIn(s.wall, s.run.seconds) ||
                !fitsIn(s.run.seconds, sum)) {
                if (!gapsNegative++)
                    firstGap = fmt("%s: wall %.6f s, RunReport %.6f s, "
                                   "Σphases %.6f s",
                                   app.name.c_str(), s.wall, s.run.seconds,
                                   sum);
            }
            if (tracedPass) {
                // The round spans are a second, independent record of
                // the same phases.
                double ev = 0;
                for (const auto& e : s.run.traceEvents)
                    ev += e.durationSeconds;
                if (!reconciles(sum, ev) && !gapsTrace++)
                    firstTraceGap = fmt("%s: round spans %.6f s, RunReport "
                                        "phases %.6f s",
                                        app.name.c_str(), ev, sum);
                const std::uint64_t solveSpan =
                    spans.add(passId, passSpan, app.name + ".solve", s.start,
                              s.start + s.wall);
                spans.addRounds(passId, solveSpan,
                                s.start + s.wall - s.run.seconds, s.run);
                spans.add(passId, passSpan, app.name + ".verify", v0, v1);
            }
        }
        if (!haveCounters) {
            counters = c;
            haveCounters = true;
        }
        spans.close(passSpan, now());
        if (t1)
            t1->add(wall);
        if (!into)
            return;
        into->wall.add(wall);
        into->cpu.add(use.cpu());
        into->verify.add(verify);
        into->assemble.add(ph.assembleSeconds);
        into->inspect.add(ph.inspectSeconds);
        into->fold.add(ph.foldSeconds);
        into->select.add(ph.selectSeconds);
        into->merge.add(ph.mergeSeconds);
        into->unaccounted.add(unacc);
        into->entry.add(entry);
        into->serialFrac.add(wall > 0 ? serial / wall : 0);
        into->user.add(use.user);
        into->sys.add(use.sys);
        into->volCsw.add(use.volCsw);
        into->involCsw.add(use.involCsw);
    };

    // Warm-up: pool spin-up, first-touch allocation and the reference
    // digest (full width), then the 1-thread digest. Verified, not timed.
    runPass(opt.threads, false, nullptr, nullptr);
    runPass(1, false, nullptr, nullptr);

    const double end = now() + opt.seconds;
    for (std::uint64_t k = 0; now() < end; ++k) {
        if (k % 3 == 2) {
            runPass(1, false, nullptr, &t1Wall);
            continue;
        }
        const bool tr = opt.trace && k % 2 == 0;
        runPass(opt.threads, tr, tr ? &traced : &plain, nullptr);
    }

    if (gapsNegative)
        rep.finding(fmt("%zu app calls with a negative wall split, first: %s",
                        gapsNegative, firstGap.c_str()));
    if (gapsTrace)
        rep.finding(fmt("%zu app calls whose round spans do not add up to "
                        "their phases, first: %s",
                        gapsTrace, firstTraceGap.c_str()));

    rep.info(fmt("threads: full width %u, one-thread passes 1 in 3",
                 opt.threads));
    if (!opt.trace) {
        rep.e2e("setup_s", "s", setup.total);
        rep.e2e("solve_s", "s", plain.wall);
        rep.e2e("solve_s_tail", "s", plain.wall.tail(),
                fmt("p%.1f of %zu passes", plain.wall.tailPct(),
                    plain.wall.n()));
        rep.e2e("solve_t1_s", "s", t1Wall);
        rep.e2e("cpu_s", "s", plain.cpu);
        rep.e2e("jobs_per_s", "1/s", 1 / plain.wall.median(),
                "full-width passes per second, from the median pass");
        rep.e2e("peak_rss_mb", "MB", peakRssMb());
        for (std::size_t i = 0; i < apps.size(); ++i)
            rep.info("apps." + apps[i].name + ".solve_s " +
                     plain.app[i].describe());
        return;
    }

    // Per-layer metrics: every figure from the traced full-width passes.
    const PassStats& t = traced;
    rep.layer("setup.gen_s", "s", setup.gen);
    rep.layer("setup.build_s", "s", setup.build);
    for (std::size_t i = 0; i < apps.size(); ++i)
        rep.layer("apps." + apps[i].name + ".solve_s", "s", t.app[i]);
    rep.layer("apps.verify_s", "s", t.verify);
    rep.layer("runtime.assemble_s", "s", t.assemble);
    rep.layer("runtime.inspect_s", "s", t.inspect);
    rep.layer("runtime.fold_s", "s", t.fold);
    rep.layer("runtime.select_s", "s", t.select);
    rep.layer("runtime.merge_s", "s", t.merge);
    rep.layer("runtime.serial_frac", "ratio", t.serialFrac);
    rep.layer("runtime.unaccounted_s", "s", t.unaccounted);
    rep.layer("runtime.entry_overhead_s", "s", t.entry);
    counters.report(rep);
    rep.layer("support.user_cpu_s", "s", t.user);
    rep.layer("support.sys_cpu_s", "s", t.sys);
    rep.layer("support.vol_ctx_switches", "count", t.volCsw);
    rep.layer("support.invol_ctx_switches", "count", t.involCsw);
    rep.layer("trace.overhead_frac", "ratio",
              t.wall.median() / plain.wall.median() - 1,
              fmt("traced %s vs untraced %s", t.wall.describe().c_str(),
                  plain.wall.describe().c_str()));

    // Summary reconciliation: the medians of the parts against the
    // median of the whole.
    const double parts = t.assemble.median() + t.inspect.median() +
                         t.fold.median() + t.select.median() +
                         t.merge.median() + t.unaccounted.median();
    if (!reconciles(t.wall.median(), parts))
        rep.finding(fmt("median pass %.6f s vs Σ median phases + median "
                        "unaccounted %.6f s",
                        t.wall.median(), parts));
}

} // namespace perfbench
