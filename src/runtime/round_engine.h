/**
 * @file
 * SPMD round engine — the executor-independent half of the runtime.
 *
 * Every executor repeats the same scaffolding: clamp the requested
 * thread count to the pool, keep per-thread stats, optionally hand each
 * thread a private software cache model, time the loop, and fold it all
 * into a RunReport. The deterministic executor adds a bulk-synchronous
 * round protocol on top: serial bookkeeping steps (assemble, the mark
 * fold, merge), two parallel phases over id-ordered slices, and
 * barriers between them (Figure 2 of the paper). RoundEngine owns both
 * layers so that executors are reduced to their scheduling policy:
 *
 *  - construction: thread clamp, barrier, per-thread stats, cache bank;
 *  - bindContext(): the per-thread UserContext wiring (stats + cache)
 *    that was previously copy-pasted across the three executors;
 *  - spmd(): dispatch a parallel region on the engine's thread count;
 *  - roundLoop(): the round protocol — two barriers per round, serial
 *    steps riding barrier completion sections — with serial-section
 *    fault containment (a throwing bookkeeping step must stop the loop
 *    at a round boundary, never strand peers at a barrier) and
 *    per-phase wall-clock timing into RunReport::phases;
 *  - finish(): stats aggregation + timing into a RunReport.
 *
 * blockRange() — the deterministic contiguous partition of n items over
 * the region's threads — also lives here; the id-ordered slices it
 * yields are what make per-thread output concatenation (in thread
 * order) a schedule-pure merge.
 */

#ifndef DETGALOIS_RUNTIME_ROUND_ENGINE_H
#define DETGALOIS_RUNTIME_ROUND_ENGINE_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "model/cache_model.h"
#include "runtime/context.h"
#include "runtime/stats.h"
#include "support/barrier.h"
#include "support/per_thread.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace galois::runtime {

/** Contiguous [begin, end) slice of n items for thread tid of nthreads. */
inline std::pair<std::size_t, std::size_t>
blockRange(std::size_t n, unsigned tid, unsigned nthreads)
{
    const std::size_t per = n / nthreads;
    const std::size_t extra = n % nthreads;
    const std::size_t begin = tid * per + std::min<std::size_t>(tid, extra);
    return {begin, begin + per + (tid < extra ? 1 : 0)};
}

/** Shared run scaffolding + the bulk-synchronous round protocol. */
class RoundEngine
{
  public:
    /**
     * @param requested_threads desired worker count (clamped to
     *                          [1, ThreadPool::maxThreads()]).
     * @param use_cache         give each thread a private CacheModel and
     *                          bind it in bindContext() (Fig. 11 proxy).
     */
    RoundEngine(unsigned requested_threads, bool use_cache)
        : threads_(std::max(
              1u, std::min(requested_threads,
                           support::ThreadPool::get().maxThreads()))),
          barrier_(threads_),
          caches_(use_cache ? support::ThreadPool::get().maxThreads() : 0)
    {
        timer_.start();
    }

    /** Effective (clamped) thread count of the region. */
    unsigned threads() const { return threads_; }

    /** Wire a per-thread context: stats always, cache model on demand.
     *  This is the one copy of the setup previously duplicated by the
     *  serial, speculative and deterministic executors. */
    template <typename T>
    void
    bindContext(UserContext<T>& ctx, unsigned tid)
    {
        ctx.bindStats(&stats_.local());
        if (!caches_.empty())
            ctx.bindCache(&caches_[tid]);
    }

    /** Deterministic slice of n items for tid on this engine's region. */
    std::pair<std::size_t, std::size_t>
    slice(std::size_t n, unsigned tid) const
    {
        return blockRange(n, tid, threads_);
    }

    /** Run fn(tid) on threads() pool threads and wait for completion. */
    template <typename Fn>
    void
    spmd(Fn&& fn)
    {
        support::ThreadPool::get().run(threads_, std::forward<Fn>(fn));
    }

    /** Calling thread's stats slot (for non-context bookkeeping). */
    ThreadStats& localStats() { return stats_.local(); }

    /**
     * Collect per-round TraceEvents during roundLoop() (chrome://tracing
     * dump, see runtime/report_io.h). Off by default; when off the only
     * residue in the round protocol is one branch per phase.
     */
    void enableTrace(bool on) { traceEnabled_ = on; }

    /**
     * Cancellation hook: called by thread 0 at every round boundary
     * (before the round is assembled), inside the serial section's
     * containment. A hook that throws stops the loop exactly like a
     * throwing assemble step — the current round is never truncated,
     * no peer is stranded at a barrier, and the executor's
     * finish-the-round unwind (mark release, deterministic error
     * selection) runs as for any other serial-section fault. This is
     * what job-level deadlines and external cancellation hang off:
     * preemption at round granularity keeps every completed round's
     * effects deterministic.
     */
    void
    setCancelCheck(std::function<void()> check)
    {
        cancelCheck_ = std::move(check);
    }

    /**
     * The deterministic round protocol, run by every region thread.
     * Four serial steps and two parallel phases per round:
     *
     *   assemble()  serial   window prefix -> cur (false: loop ends)
     *   phase1(tid) parallel inspect over id-ordered slices
     *   mid()       serial   mark fold between inspect and select
     *   phase2(tid) parallel select-and-execute
     *   merge()     serial   deterministic merge + window update
     *
     * Barrier placement (two rendezvous per round):
     *
     *   barrier{ assemble }                     // entry, opens round 1
     *   loop: if !active: return
     *         phase1(tid); barrier{ mid }
     *         phase2(tid); barrier{ merge; assemble }
     *
     * each serial step running as the completion section of the barrier
     * that closes the phase before it: it runs on the last-arriving
     * thread while every peer is parked, the same quiescence a dedicated
     * barrier pair around it would give (support/barrier.h), with two
     * rendezvous per round instead of five.
     *
     * A serial step that throws calls on_error() from inside the catch
     * block (std::current_exception() is live) and the loop stops at
     * the next round boundary via assemble() returning false — no
     * thread is ever stranded at a barrier. (mid() must not throw — the
     * executors' mark fold is loads and plain stores, because a partial
     * fold would be a nondeterministic interference graph — but is
     * wrapped here as a last line of defense.) Wall time is accounted
     * per phase into the profile returned by finish(): parallel phases
     * span completion-to-completion, so stragglers are included; serial
     * steps are timed inside their section. The accounting runs on the
     * last-arriving thread — serialized by the barrier itself, so the
     * engine's phase state needs no extra synchronization.
     */
    template <typename Assemble, typename Phase1, typename Mid,
              typename Phase2, typename Merge, typename OnSerialError>
    void
    roundLoop(unsigned tid, Assemble&& assemble, Phase1&& phase1, Mid&& mid,
              Phase2&& phase2, Merge&& merge, OnSerialError&& on_error)
    {
        barrier_.wait([&] { openRound(assemble, on_error); });
        for (;;) {
            if (!roundActive_)
                return;
            phase1(tid);
            barrier_.wait([&] {
                stampParallel(TraceEvent::Phase::Inspect);
                runSerial(TraceEvent::Phase::Fold, phases_.foldSeconds,
                          mid, on_error);
                phaseClock_.start();
            });
            phase2(tid);
            barrier_.wait([&] {
                stampParallel(TraceEvent::Phase::Select);
                runSerial(TraceEvent::Phase::Merge, phases_.mergeSeconds,
                          merge, on_error);
                openRound(assemble, on_error);
            });
        }
    }

    /** Stop the clock and fold threads, seconds, per-thread stats and
     *  the phase profile into the report. */
    void
    finish(RunReport& report)
    {
        timer_.stop();
        for (std::size_t t = 0; t < stats_.size(); ++t)
            report.accumulate(stats_.remote(t));
        report.threads = threads_;
        report.seconds = timer_.seconds();
        report.phases = phases_;
        report.traceEvents = std::move(trace_);
    }

  private:
    /**
     * Serial round opener: cancellation check + assemble, with fault
     * containment. When the round is active, advances the trace round
     * and opens the first parallel span (phaseClock_). The terminating
     * assemble (empty bag) is profiled but not traced: the timeline
     * holds exactly five spans per executed round, with no dangling
     * span per generation.
     */
    template <typename Assemble, typename OnSerialError>
    void
    openRound(Assemble& assemble, OnSerialError& on_error)
    {
        support::Timer t;
        t.start();
        try {
            if (cancelCheck_)
                cancelCheck_();
            roundActive_ = assemble();
        } catch (...) {
            on_error();
            roundActive_ = false;
        }
        t.stop();
        phases_.assembleSeconds += t.seconds();
        if (roundActive_) {
            ++traceRound_;
            recordTrace(TraceEvent::Phase::Assemble, t.seconds());
            phaseClock_.start();
        }
    }

    /** Close the running parallel span and account it to `phase`. */
    void
    stampParallel(TraceEvent::Phase phase)
    {
        phaseClock_.stop();
        const double s = phaseClock_.seconds();
        phaseClock_.reset();
        if (phase == TraceEvent::Phase::Inspect)
            phases_.inspectSeconds += s;
        else
            phases_.selectSeconds += s;
        recordTrace(phase, s);
    }

    /** Run one timed serial step with fault containment. */
    template <typename Step, typename OnSerialError>
    void
    runSerial(TraceEvent::Phase phase, double& sink, Step& step,
              OnSerialError& on_error)
    {
        support::Timer t;
        t.start();
        try {
            step();
        } catch (...) {
            on_error();
        }
        t.stop();
        sink += t.seconds();
        recordTrace(phase, t.seconds());
    }

    /** Append one span to the trace (serialized callers only, tracing
     *  on). The timeline is the cumulative sum of phase durations:
     *  phases are timed back-to-back, so the spans tile the loop. */
    void
    recordTrace(TraceEvent::Phase phase, double dur)
    {
        if (!traceEnabled_)
            return;
        trace_.push_back(TraceEvent{traceRound_, phase, traceNow_, dur});
        traceNow_ += dur;
    }

    unsigned threads_;
    support::Barrier barrier_;
    std::function<void()> cancelCheck_;
    support::PerThread<ThreadStats> stats_;
    std::vector<model::CacheModel> caches_;
    support::Timer timer_;
    support::Timer phaseClock_; //!< open parallel span (serialized access)
    PhaseProfile phases_;
    std::vector<TraceEvent> trace_;
    double traceNow_ = 0;          //!< trace timeline cursor (seconds)
    std::uint64_t traceRound_ = 0; //!< rounds started (across generations)
    bool traceEnabled_ = false;
    bool roundActive_ = false;
};

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_ROUND_ENGINE_H
