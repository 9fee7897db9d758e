/**
 * @file
 * svc-mix: a single-threaded generator drives an in-process DetService
 * with seeded bfs/sssp/cc/mis jobs.
 *
 * Job inputs come from a small pool of (n, k, seed) triples. The pool
 * holds more edge lists than the service's input cache, so the cache
 * both hits and misses. Jobs are 1 or 2
 * threads wide with lanes x width <= full width, and every fifth job
 * runs Exec::DetRes. This is the only workload that times the service's
 * queue, admission and input cache, and DetRes's admission policy.
 *
 *  - Phase A, open loop: jobs are due at a fixed rate (about 27% of the
 *    closed-loop capacity measured on the 4-core reference host; at two
 *    thirds, queueing turns the host's capacity swings into latency
 *    swings larger than any bound) whatever the service does. Latency
 *    runs from each job's due time to its receipt, so a stall is charged
 *    to every job it delays. The generator's own lateness is reported as
 *    service.gen_late_s.
 *  - Phase B, closed loop: a fixed number of jobs in flight, each
 *    completion releasing the next; gives throughput.
 *
 * Every receipt digest must equal the DetService::runInline reference
 * computed during set-up.
 */

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "apps/sssp.h"
#include "common.h"
#include "graph/generators.h"
#include "service/app_registry.h"
#include "service/server.h"

namespace perfbench {

namespace {

namespace svc = galois::service;

constexpr unsigned kInputs = 20;      //!< (n, k, seed) triples in the pool
constexpr std::uint32_t kEdgeBudget = 24000; //!< n * k of every input
constexpr unsigned kDetResInputs = 3; //!< inputs DetRes jobs draw from
constexpr double kRate = 25;          //!< phase A jobs due per second
constexpr double kPhaseAShare = 0.6;  //!< share of --seconds in phase A
constexpr unsigned kDetResEvery = 5;  //!< every 5th job runs DetRes
constexpr int kSetupReps = 3;
const char* const kApps[] = {"bfs", "sssp", "cc", "mis"};

struct Input
{
    std::uint32_t n;
    unsigned k;
    std::uint64_t seed;
};

struct Job
{
    std::size_t cell; //!< reference-digest cell: (app, input, exec)
    svc::JobSpec spec;
};

/** What the generator and the receipt callback record about one job. */
struct Outcome
{
    double due = 0, submitted = 0, done = 0;
    svc::Receipt receipt;
};

/** The pool of inputs. Shapes are fixed per slot, so the work of the mix
 *  does not depend on the seed; the graphs do. Every shape has the same
 *  edge count (n * k = kEdgeBudget), so every cached edge list has the
 *  same size and the cache's footprint does not depend on which inputs
 *  a seed's draws leave resident. */
std::vector<Input>
makePool(std::uint64_t seed)
{
    std::vector<Input> pool;
    for (unsigned i = 0; i < kInputs; ++i) {
        const unsigned k = 3 + i % 3;
        pool.push_back({kEdgeBudget / k, k, subSeed(seed, 22, i)});
    }
    return pool;
}

std::size_t
cellOf(std::size_t app, std::size_t input, bool detres)
{
    return (input * 4 + app) * 2 + (detres ? 1 : 0);
}

svc::JobSpec
specOf(const std::vector<Input>& pool, std::size_t cell, unsigned threads)
{
    svc::JobSpec s;
    const Input& in = pool[cell / 8];
    s.app = kApps[cell / 2 % 4];
    s.n = in.n;
    s.k = in.k;
    s.seed = in.seed;
    s.source = static_cast<std::uint32_t>(in.seed % in.n);
    s.exec = cell % 2 ? galois::Exec::DetRes : galois::Exec::Det;
    s.threads = threads;
    return s;
}

/** Job `j` of stream `stream`: uniform input and app, fixed share of
 *  DetRes, alternating width. Popularity is uniform so that no seed's
 *  few hottest graphs set the mix's cost; the cache still misses, since
 *  it holds 32 of the 40 edge lists. */
Job
makeJob(const std::vector<Input>& pool, std::uint64_t seed,
        std::uint64_t stream, std::uint64_t j, unsigned maxWidth)
{
    const galois::support::CounterPrng rng(seed, 30 + stream);
    const double u = rng.peekDouble(2 * j);
    const bool detres = j % kDetResEvery == 0;
    // DetRes runs bfs and mis, where its fixed round size costs most
    // against Det, on the smallest graphs (slots 2, 8, 14: k = 5), so its
    // jobs stay within a few times the size of the others.
    const std::size_t input =
        detres ? 2 + 6 * static_cast<std::size_t>(kDetResInputs * u)
               : static_cast<std::size_t>(kInputs * u);
    const std::size_t app =
        detres ? 3 * (rng.peek(2 * j + 1) % 2) : rng.peek(2 * j + 1) % 4;
    const std::size_t cell = cellOf(app, input, detres);
    Job job{cell, specOf(pool, cell, 1 + static_cast<unsigned>(j % maxWidth))};
    job.spec.id = std::to_string(stream) + "-" + std::to_string(j);
    return job;
}

/** Receipts land here from lane threads. */
struct Mailbox
{
    std::mutex lock;
    std::condition_variable changed;
    std::size_t done = 0;

    svc::DetService::Callback
    deliver(Outcome& out)
    {
        return [this, &out](svc::Receipt r) {
            const double t = now();
            std::lock_guard<std::mutex> guard(lock);
            out.receipt = std::move(r);
            out.done = t;
            ++done;
            changed.notify_all();
        };
    }

    void
    waitFor(std::size_t n)
    {
        std::unique_lock<std::mutex> guard(lock);
        changed.wait(guard, [&] { return done >= n; });
    }
};

} // namespace

int
runSvcMix(const Options& opt, Report& rep, Spans& spans)
{
    const unsigned maxWidth = std::min(2u, opt.threads);
    const unsigned lanes = std::max(1u, opt.threads / maxWidth);
    const std::vector<Input> pool = makePool(opt.seed);
    const std::size_t cells = kInputs * 4 * 2;

    // Set-up: generate and build every pool input from outside (the cost
    // a cache miss pays inside the service), then the runInline
    // reference digest of every cell. Repeated; the median is setup_s.
    SetupTimes setup;
    std::vector<std::string> ref(cells);
    for (int r = 0; r < kSetupReps; ++r) {
        svc::clearInputCache();
        const double t0 = now();
        double gen = 0, build = 0;
        for (const Input& in : pool) {
            const double a = now();
            const auto kEdges = galois::graph::randomKOut(in.n, in.k, in.seed,
                                                          true);
            const auto wEdges = galois::apps::sssp::randomWeightedGraph(
                in.n, in.k, 100, in.seed);
            const double b = now();
            galois::apps::sssp::Graph g(in.n, wEdges);
            galois::apps::sssp::Graph h(in.n, kEdges);
            gen += b - a;
            build += now() - b;
        }
        const double t1 = now();
        for (std::size_t c = 0; c < cells; ++c) {
            if (c % 2 && (c / 8 % 6 != 2 || c / 2 % 4 % 3 != 0))
                continue; // no job runs this cell under DetRes
            const svc::Receipt rr = svc::DetService::runInline(
                specOf(pool, c, 1));
            if (rr.status != svc::JobStatus::Ok) {
                std::fprintf(stderr, "perfbench: reference run %s failed: %s\n",
                             rr.spec.describe().c_str(), rr.error.c_str());
                return 1;
            }
            const std::string d = svc::digestHex(rr.digest);
            if (r > 0 && d != ref[c]) {
                std::fprintf(stderr, "perfbench: reference digest of %s "
                             "changed between set-ups\n",
                             rr.spec.describe().c_str());
                return 1;
            }
            ref[c] = d;
        }
        const double t2 = now();
        setup.gen.add(gen);
        setup.build.add(build);
        setup.total.add(t2 - t0);
        const std::uint64_t id = spans.add(0, 0, "setup", t0, t2);
        spans.add(0, id, "graph.gen+csr_build", t0, t1);
        spans.add(0, id, "reference_digests", t1, t2);
    }
    svc::clearInputCache(); // the service starts cold
    const double rssSetup = peakRssMb();

    svc::ServiceConfig scfg;
    scfg.lanes = lanes;
    scfg.queueCapacity = 1u << 16; // the open loop must never see a 429
    svc::DetService service(scfg);

    auto verify = [&](const Job& job, const Outcome& o) {
        const bool ok = o.receipt.status == svc::JobStatus::Ok &&
                        svc::digestHex(o.receipt.digest) == ref[job.cell];
        rep.verify(ok, "job " + job.spec.describe() + " status " +
                           svc::jobStatusName(o.receipt.status));
        return ok;
    };

    // ---- Phase A: open loop at kRate.
    const std::size_t nA = std::max<std::size_t>(
        1, static_cast<std::size_t>(opt.seconds * kPhaseAShare * kRate));
    std::vector<Job> jobsA;
    for (std::size_t j = 0; j < nA; ++j)
        jobsA.push_back(makeJob(pool, opt.seed, 0, j, maxWidth));
    std::vector<Outcome> outA(nA);
    Mailbox boxA;
    const Usage uA0 = Usage::take();
    const double startA = now() + 0.01;
    for (std::size_t j = 0; j < nA; ++j) {
        Outcome& o = outA[j];
        o.due = startA + static_cast<double>(j) / kRate;
        const double wait = o.due - now();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        o.submitted = now();
        service.submit(jobsA[j].spec, boxA.deliver(o));
    }
    boxA.waitFor(nA);
    const Usage uA = Usage::take() - uA0;
    const double rssA = peakRssMb();

    // ---- Phase B: closed loop, `inFlight` jobs outstanding.
    const unsigned inFlight = 2 * lanes;
    const double lenB = opt.seconds * (1 - kPhaseAShare);
    std::vector<Job> jobsB;
    std::deque<Outcome> outB; // stable addresses for the callbacks
    Mailbox boxB;
    const Usage uB0 = Usage::take();
    const double startB = now();
    std::size_t sentB = 0;
    while (now() - startB < lenB) {
        {
            std::unique_lock<std::mutex> guard(boxB.lock);
            boxB.changed.wait(guard,
                              [&] { return sentB - boxB.done < inFlight; });
        }
        jobsB.push_back(makeJob(pool, opt.seed, 1, sentB, maxWidth));
        outB.emplace_back();
        outB.back().submitted = now();
        service.submit(jobsB.back().spec, boxB.deliver(outB.back()));
        ++sentB;
    }
    boxB.waitFor(sentB);
    double lastB = startB;
    for (const Outcome& o : outB)
        lastB = std::max(lastB, o.done);
    const Usage uB = Usage::take() - uB0;
    const svc::ServiceStats stats = service.stats();
    service.shutdown();

    // ---- Verification and statistics (outside every timed span).
    Samples latency, latencyT1, late, verifyS;
    Samples queue, build, forEach, assemble, inspect,
        fold, select, merge, unacc, serialFrac;
    std::vector<Samples> appSolve(4);
    Counters counters;
    std::uint64_t detres = 0;
    std::size_t gaps = 0;
    std::string firstGap;
    for (std::size_t j = 0; j < nA; ++j) {
        const Outcome& o = outA[j];
        const double v0 = now();
        const bool ok = verify(jobsA[j], o);
        verifyS.add(now() - v0);
        const double lat = o.done - o.due;
        latency.add(lat);
        if (jobsA[j].spec.threads == 1)
            latencyT1.add(lat);
        late.add(o.submitted - o.due);
        detres += jobsA[j].spec.exec == galois::Exec::DetRes;
        if (!ok)
            continue;
        const svc::Receipt& r = o.receipt;
        const double fe = r.record.medianSeconds;
        const double bld = r.runSeconds - fe;
        // Reconciliation: due -> receipt = generator lateness + queue +
        // build + forEach (submit and callback hand-offs are the gap).
        const double parts = (o.submitted - o.due) + r.queueSeconds + bld + fe;
        if (!reconciles(lat, parts) && !gaps++)
            firstGap = fmt("job %s: latency %.6f s, lateness + queue + "
                           "build + forEach %.6f s",
                           r.spec.describe().c_str(), lat, parts);
        if (!opt.trace)
            continue;
        const auto& p = r.record.phases;
        queue.add(r.queueSeconds);
        build.add(bld);
        forEach.add(fe);
        assemble.add(p.assembleSeconds);
        inspect.add(p.inspectSeconds);
        fold.add(p.foldSeconds);
        select.add(p.selectSeconds);
        merge.add(p.mergeSeconds);
        const double sum = p.assembleSeconds + p.inspectSeconds +
                           p.foldSeconds + p.selectSeconds + p.mergeSeconds;
        unacc.add(fe - sum);
        serialFrac.add(fe > 0 ? (p.assembleSeconds + p.foldSeconds +
                                 p.mergeSeconds) /
                                    fe
                              : 0);
        appSolve[jobsA[j].cell / 2 % 4].add(fe);
        counters.add(r.record);

        const std::uint64_t trace = j + 1;
        const std::uint64_t id = spans.add(trace, 0, "job", o.due, o.done);
        double t = o.submitted;
        spans.add(trace, id, "service.gen_late", o.due, t);
        spans.add(trace, id, "service.queue", t, t + r.queueSeconds);
        t += r.queueSeconds;
        spans.add(trace, id, "service.build", t, t + bld);
        spans.add(trace, id, "service.foreach", t + bld, t + bld + fe);
    }
    for (std::size_t j = 0; j < jobsB.size(); ++j)
        verify(jobsB[j], outB[j]);
    if (gaps)
        rep.finding(fmt("%zu of %zu jobs do not reconcile, first: %s", gaps,
                        nA, firstGap.c_str()));

    const double jobsPerS =
        static_cast<double>(jobsB.size()) / std::max(1e-9, lastB - startB);
    rep.info(fmt("service: %u lanes, widths 1..%u, %u input triples, "
                 "phase A %zu jobs due at %g/s (%llu DetRes), phase B %zu "
                 "jobs with %u in flight",
                 lanes, maxWidth, kInputs, nA, kRate,
                 static_cast<unsigned long long>(detres), jobsB.size(),
                 inFlight));
    rep.info(fmt("peak RSS after set-up %.1f MB, after phase A %.1f MB",
                 rssSetup, rssA));
    if (!opt.trace) {
        rep.e2e("setup_s", "s", setup.total);
        rep.e2e("solve_s", "s", latency);
        rep.e2e("solve_s_tail", "s", latency.tail(),
                fmt("p%.1f of %zu jobs", latency.tailPct(), latency.n()));
        rep.e2e("solve_t1_s", "s", latencyT1);
        rep.e2e("cpu_s", "s", uB.cpu() / std::max<std::size_t>(1, jobsB.size()),
                "phase B CPU per job");
        rep.e2e("jobs_per_s", "1/s", jobsPerS, "phase B, closed loop");
        rep.e2e("peak_rss_mb", "MB", peakRssMb());
        rep.info("job_latency_s " + latency.describe() +
                 " (solve_s, solve_s_tail)");
        rep.info("service.gen_late_s " + late.describe());
        return 0;
    }

    const double perJob = 1.0 / static_cast<double>(nA);
    rep.layer("setup.gen_s", "s", setup.gen);
    rep.layer("setup.build_s", "s", setup.build);
    rep.layer("graph.gen_s", "s", setup.gen);
    rep.layer("graph.csr_build_s", "s", setup.build);
    for (std::size_t a = 0; a < 4; ++a)
        rep.layer(std::string("apps.") + kApps[a] + ".solve_s", "s",
                  appSolve[a]);
    rep.layer("apps.verify_s", "s", verifyS);
    rep.layer("runtime.assemble_s", "s", assemble);
    rep.layer("runtime.inspect_s", "s", inspect);
    rep.layer("runtime.fold_s", "s", fold);
    rep.layer("runtime.select_s", "s", select);
    rep.layer("runtime.merge_s", "s", merge);
    rep.layer("runtime.serial_frac", "ratio", serialFrac);
    rep.layer("runtime.unaccounted_s", "s", unacc);
    counters.report(rep);
    rep.layer("support.user_cpu_s", "s", uA.user * perJob, "phase A per job");
    rep.layer("support.sys_cpu_s", "s", uA.sys * perJob, "phase A per job");
    rep.layer("support.vol_ctx_switches", "count", uA.volCsw * perJob,
              "phase A per job");
    rep.layer("support.invol_ctx_switches", "count", uA.involCsw * perJob,
              "phase A per job");
    rep.layer("service.queue_s", "s", queue);
    rep.layer("service.build_s", "s", build);
    rep.layer("service.foreach_s", "s", forEach);
    rep.layer("service.gen_late_s", "s", late);
    rep.layer("service.cache_entries", "count",
              double(svc::inputCacheSize()));
    rep.layer("service.retries", "count", double(stats.retries));
    rep.layer("service.rejected", "count", double(stats.rejected));
    // The job spans are built from the receipts after the run, so the
    // traced run executes exactly what the untraced one does.
    rep.layer("trace.overhead_frac", "ratio", 0,
              "job spans are derived from receipts after the run");
    return 0;
}

} // namespace perfbench
