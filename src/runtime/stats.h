/**
 * @file
 * Execution statistics collected by every executor.
 *
 * These counters regenerate the application-characteristics figures of the
 * paper: committed/aborted task counts and round counts (Fig. 4), atomic
 * update counts (Fig. 5), and — via the cache model — the locality proxy
 * (Fig. 11).
 */

#ifndef DETGALOIS_RUNTIME_STATS_H
#define DETGALOIS_RUNTIME_STATS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace galois::runtime {

// ----------------------------------------------------------------------
// Cross-run trace digests.
//
// The deterministic executor folds every round's outcome — the selected
// (committed) task ids in id order, then the commit count — into one
// 64-bit FNV-1a digest, exposed as RunReport::traceDigest. Two runs of
// the same (input, operator, options) must produce the same digest on
// any thread count, so the paper's portability property collapses to a
// one-line assertion:
//
//   EXPECT_EQ(runOn(1).traceDigest, runOn(8).traceDigest);
//
// The other executors leave the digest at 0 (the speculative schedule is
// non-deterministic by design; the serial executor has no task ids).
// ----------------------------------------------------------------------

constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/** Fold one 64-bit value into an FNV-1a digest, byte by byte. */
inline std::uint64_t
fnv1aMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= v & 0xffu;
        h *= kFnv1aPrime;
        v >>= 8;
    }
    return h;
}

/** Per-thread counters; aggregated into a RunReport after a for_each. */
struct ThreadStats
{
    std::uint64_t committed = 0;   //!< tasks executed to completion
    std::uint64_t aborted = 0;     //!< conflicts (nd) / failed selections (det)
    std::uint64_t atomicOps = 0;   //!< CAS-class operations on marks & app data
    std::uint64_t pushed = 0;      //!< dynamically created tasks
    std::uint64_t cacheAccesses = 0; //!< cache-model accesses (if enabled)
    std::uint64_t cacheMisses = 0;   //!< cache-model misses (if enabled)
    std::uint64_t backoffYields = 0; //!< yields spent in abort backoff (nd)

    ThreadStats&
    operator+=(const ThreadStats& o)
    {
        committed += o.committed;
        aborted += o.aborted;
        atomicOps += o.atomicOps;
        pushed += o.pushed;
        cacheAccesses += o.cacheAccesses;
        cacheMisses += o.cacheMisses;
        backoffYields += o.backoffYields;
        return *this;
    }
};

/**
 * Wall-clock seconds per round-engine phase, accounted by thread 0 of
 * the SPMD region (each parallel phase is timed to the barrier that
 * closes it, so stragglers are included). Zero for executors without
 * rounds (serial, speculative). These are the per-phase costs behind
 * the paper's Section 3.4 overhead analysis.
 */
struct PhaseProfile
{
    double assembleSeconds = 0; //!< window calculation + round assembly
    double inspectSeconds = 0;  //!< parallel inspect (acquire-set collection)
    /** Serial mark fold between inspect and select (fused protocol's
     *  mid-round completion section; 0 when the executor has no fold). */
    double foldSeconds = 0;
    double selectSeconds = 0;   //!< parallel select-and-execute
    double mergeSeconds = 0;    //!< deterministic merge + window update
};

/**
 * One round of the adaptive window policy as observed by the merge
 * step: the window in effect, the tasks attempted and the tasks
 * committed. The sequence of samples is the *window trajectory* of a
 * run — under Exec::Det a pure function of (input, operator, options),
 * so equal across thread counts, and the raw data behind the
 * commit-ratio plots of the evaluation.
 */
struct RoundSample
{
    std::uint64_t window = 0;    //!< window size in effect this round
    std::uint64_t attempted = 0; //!< tasks inspected (|cur|)
    std::uint64_t committed = 0; //!< tasks committed

    bool
    operator==(const RoundSample& o) const
    {
        return window == o.window && attempted == o.attempted &&
               committed == o.committed;
    }
};

/**
 * One timed span of the round protocol, recorded only when trace
 * collection is enabled (Config::traceRounds): which phase, which
 * round, and its position on thread 0's serial timeline. Rendered as a
 * chrome://tracing "X" (complete) event by report_io.
 */
struct TraceEvent
{
    /** Round-protocol phase of this span. */
    enum class Phase : std::uint8_t
    {
        Assemble = 0,
        Inspect = 1,
        Select = 2,
        Merge = 3,
        Fold = 4
    };

    std::uint64_t round = 0;   //!< 1-based round ordinal
    Phase phase = Phase::Assemble;
    double startSeconds = 0;   //!< offset from the start of the loop
    double durationSeconds = 0;
};

/** Display name of a trace-event phase ("assemble", "inspect", ...). */
inline const char*
traceEventPhaseName(TraceEvent::Phase p)
{
    switch (p) {
      case TraceEvent::Phase::Assemble:
        return "assemble";
      case TraceEvent::Phase::Inspect:
        return "inspect";
      case TraceEvent::Phase::Select:
        return "select";
      case TraceEvent::Phase::Merge:
        return "merge";
      case TraceEvent::Phase::Fold:
        return "fold";
    }
    return "?";
}

/** Summary of one for_each execution, returned to the caller. */
struct RunReport
{
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t atomicOps = 0;
    std::uint64_t pushed = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t backoffYields = 0; //!< abort-storm backoff yields (nd)
    std::uint64_t rounds = 0;      //!< deterministic rounds (det executor)
    std::uint64_t generations = 0; //!< outer todo-generations (det executor)
    /** FNV-1a over (committed ids, commit count) of every round; equal
     *  across thread counts under Exec::Det, 0 for other executors. */
    std::uint64_t traceDigest = 0;
    double seconds = 0.0;          //!< wall-clock time of the loop
    unsigned threads = 1;          //!< threads used
    PhaseProfile phases;           //!< per-phase time (round engine only)
    /** Per-round (window, attempted, committed) samples — the window
     *  trajectory. Filled by the deterministic executors (one sample per
     *  round, appended by the serial merge step); empty elsewhere. */
    std::vector<RoundSample> roundTrace;
    /** chrome://tracing spans of the round protocol. Collected only when
     *  tracing is enabled (Config::traceRounds); empty — and costing
     *  nothing — otherwise. */
    std::vector<TraceEvent> traceEvents;

    /** Fraction of attempted tasks that aborted. */
    double
    abortRatio() const
    {
        const double attempts =
            static_cast<double>(committed) + static_cast<double>(aborted);
        return attempts == 0 ? 0.0 : static_cast<double>(aborted) / attempts;
    }

    /** Fraction of attempted tasks that committed (1 - abortRatio). */
    double
    commitRatio() const
    {
        const double attempts =
            static_cast<double>(committed) + static_cast<double>(aborted);
        return attempts == 0 ? 1.0
                             : static_cast<double>(committed) / attempts;
    }

    /** Committed tasks per microsecond. */
    double
    tasksPerUs() const
    {
        return seconds == 0 ? 0.0
                            : static_cast<double>(committed) / (seconds * 1e6);
    }

    /** Atomic updates per microsecond. */
    double
    atomicsPerUs() const
    {
        return seconds == 0 ? 0.0
                            : static_cast<double>(atomicOps) / (seconds * 1e6);
    }

    /**
     * Fold in a run that followed this one, so a multi-loop app reports
     * one run: counters, seconds and phase times add, the trajectory and
     * o's trace spans (rebased onto this run's rounds and timeline)
     * append, and a non-zero o.traceDigest chains into this digest
     * (from the FNV offset if this one is still 0). A zero o.traceDigest
     * — no deterministic schedule — leaves the digest as it is.
     */
    void
    merge(const RunReport& o)
    {
        for (TraceEvent e : o.traceEvents) {
            e.round += rounds;
            e.startSeconds += seconds;
            traceEvents.push_back(e);
        }
        roundTrace.insert(roundTrace.end(), o.roundTrace.begin(),
                          o.roundTrace.end());
        committed += o.committed;
        aborted += o.aborted;
        atomicOps += o.atomicOps;
        pushed += o.pushed;
        cacheAccesses += o.cacheAccesses;
        cacheMisses += o.cacheMisses;
        backoffYields += o.backoffYields;
        rounds += o.rounds;
        generations += o.generations;
        seconds += o.seconds;
        threads = std::max(threads, o.threads);
        phases.assembleSeconds += o.phases.assembleSeconds;
        phases.inspectSeconds += o.phases.inspectSeconds;
        phases.foldSeconds += o.phases.foldSeconds;
        phases.selectSeconds += o.phases.selectSeconds;
        phases.mergeSeconds += o.phases.mergeSeconds;
        if (o.traceDigest != 0)
            traceDigest = fnv1aMix(
                traceDigest != 0 ? traceDigest : kFnv1aOffset, o.traceDigest);
    }

    void
    accumulate(const ThreadStats& t)
    {
        committed += t.committed;
        aborted += t.aborted;
        atomicOps += t.atomicOps;
        pushed += t.pushed;
        cacheAccesses += t.cacheAccesses;
        cacheMisses += t.cacheMisses;
        backoffYields += t.backoffYields;
    }
};

/**
 * One benchmark observation in machine-readable form: an (app,
 * executor, thread-count) cell of the evaluation matrix together with
 * the run statistics that back every claim of the paper — median
 * wall-clock time over reps, per-phase costs, commit ratio, rounds,
 * the window trajectory and the schedule's trace digest. Serialized to
 * BENCH_results.json by runtime/report_io and consumed by
 * scripts/bench_check.py (the perf/determinism regression gate).
 */
struct BenchRecord
{
    std::string app;      //!< benchmark name (bfs, dmr, ...)
    std::string executor; //!< "serial", "nondet", "det", ...
    unsigned threads = 1; //!< requested thread count
    int reps = 1;         //!< repetitions medianSeconds summarizes
    double medianSeconds = 0; //!< median loop seconds over reps
    /** Minimum loop seconds over reps — the noise-robust estimator the
     *  regression gate compares (the fastest rep is the one least
     *  disturbed by scheduling noise). */
    double minSeconds = 0;
    double commitRatio = 1;   //!< committed / (committed + aborted)
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t pushed = 0;
    std::uint64_t atomicOps = 0;
    std::uint64_t rounds = 0;
    std::uint64_t generations = 0;
    std::uint64_t traceDigest = 0; //!< 0 outside Exec::Det
    PhaseProfile phases;
    std::vector<RoundSample> windowTrajectory;
};

/**
 * Fold one run into a BenchRecord. medianSeconds/reps are seeded from
 * the single run; callers summarizing several reps overwrite them.
 */
inline BenchRecord
makeBenchRecord(const std::string& app, const std::string& executor,
                unsigned threads, const RunReport& report)
{
    BenchRecord r;
    r.app = app;
    r.executor = executor;
    r.threads = threads;
    r.reps = 1;
    r.medianSeconds = report.seconds;
    r.minSeconds = report.seconds;
    r.commitRatio = report.commitRatio();
    r.committed = report.committed;
    r.aborted = report.aborted;
    r.pushed = report.pushed;
    r.atomicOps = report.atomicOps;
    r.rounds = report.rounds;
    r.generations = report.generations;
    r.traceDigest = report.traceDigest;
    r.phases = report.phases;
    r.windowTrajectory = report.roundTrace;
    return r;
}

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_STATS_H
