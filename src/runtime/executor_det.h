/**
 * @file
 * Deterministic interference-graph (DIG) scheduler — the paper's core
 * contribution (Section 3, Figures 2 and 3) — and, with a different
 * round-admission policy, the PBBS deterministic-reservations backend.
 *
 * Tasks are executed in *generations* (the `todo` sets of Figure 2): the
 * initial tasks form generation 0, tasks they create form generation 1,
 * and so on. Within a generation, tasks are ordered by deterministic ids
 * and executed over *rounds*; each round
 *
 *   1. takes an id-prefix `cur` of the remaining tasks, as many as the
 *      admission policy allows (getWindowOfTasks),
 *   2. runs every task in `cur` up to its failsafe point, *collecting*
 *      its neighborhood into a per-thread acquire lane (inspect),
 *   3. folds the collected claims serially, in id order, into the mark
 *      words — resolving every conflict with plain stores and flagging
 *      losers (the batched mark protocol, runtime/conflict.h); this
 *      materializes the round's interference graph at zero atomic
 *      read-modify-writes,
 *   4. commits exactly the unflagged tasks — those with no smaller-id
 *      conflictor in the window, i.e. the greedy id-order independent
 *      set — and defers the rest (selectAndExec); every thread clears
 *      the marks its own slice's records hold as it goes, in parallel
 *      (each mark has exactly one owner record after the fold, so each
 *      mark word has exactly one releasing thread).
 *
 * One executor, two admission policies (runtime/window.h): the DIG
 * scheduler and PBBS deterministic reservations run the same rounds and
 * differ only in how many tasks a round admits — the adaptive window
 * (WindowPolicy, Exec::Det) or a hand-tuned roundSize cap
 * (ReservationPolicy, Exec::DetRes); that difference is the paper's
 * "parameterless" argument (Section 3.2). PBBS's reserve / resolve /
 * commit are this file's inspect / fold / select. The policy is a
 * template parameter that also supplies the labels (AdmissionLabels:
 * det.* or detres.* failpoint sites, "window" or "prefix" in watchdog
 * diagnostics), so the round loop has no runtime dispatch.
 *
 * This file is deliberately thin: it is the *policy* composition of five
 * standalone, unit-tested mechanisms —
 *
 *   - runtime/round_engine.h: the SPMD harness (thread clamp, barriers,
 *     per-thread stats/caches, the two-barrier round protocol — serial
 *     steps ride barrier completion sections — with serial-section
 *     fault containment and phase timing);
 *   - runtime/task_store.h: struct-of-arrays task storage (id/flag,
 *     item, acquire-span, continuation and failure lanes, generation-
 *     scoped in an arena) plus the prefix-sum selection compactSelect;
 *   - runtime/id_service.h: deterministic (parent id, birth rank)
 *     ranking + renumbering + locality spread (Figure 2 line 5 and the
 *     interleave of Section 3.3);
 *   - runtime/window.h: the admission policies above;
 *   - support/arena.h: generation-scoped storage for the task lanes and
 *     round-scoped storage for continuation state, so the steady-state
 *     hot path performs no per-task heap traffic.
 *
 * Determinism argument (tested exhaustively in tests/runtime and pinned
 * end-to-end by scripts/golden_digests.txt):
 *   - ids are assigned by a deterministic sort of (parent id, birth rank),
 *   - the admitted prefix is a deterministic function of per-round commit
 *     counts under either policy,
 *   - the serial fold computes, per location, the min over a totally
 *     ordered id set — the same function the eager markMin protocol
 *     computes with racing CASes, and min is independent of evaluation
 *     order — so the final marks, the loser flags, and hence the
 *     selected set, the failure set and the set of created tasks of
 *     every round are independent of thread count and timing.
 *
 * Result determinism is stronger still: because every round admits an
 * id-*prefix* of the pending work and every contested location goes to
 * the *earliest* claimant, a task commits exactly when no pending
 * smaller-id task conflicts with it — so a committed later-id task can
 * never have touched anything a pending earlier task reads, and the
 * final state equals the serial id-order execution for ANY round
 * partition. The admission policy (adaptive, fixed-window ablation, or
 * the DetRes reservation prefix) changes the schedule — rounds, digest,
 * commit ratios — but never the output; tests/differential_test.cpp
 * pins this across all three deterministic backends.
 *
 * The three optimizations of Section 3.3 are all implemented and can be
 * toggled independently (DetOptions): the continuation (suspend/resume
 * with the flag protocol), locality-aware spreading of the iteration
 * order across rounds, and user pre-assigned ids. They apply under both
 * policies, so a DetRes run numbers its tasks exactly like a Det run of
 * the same workload.
 */

#ifndef DETGALOIS_RUNTIME_EXECUTOR_DET_H
#define DETGALOIS_RUNTIME_EXECUTOR_DET_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/detsan.h"
#include "runtime/context.h"
#include "runtime/conflict.h"
#include "runtime/id_service.h"
#include "runtime/round_engine.h"
#include "runtime/stats.h"
#include "runtime/task_store.h"
#include "runtime/window.h"
#include "runtime/worklist.h" // SpinLock
#include "support/arena.h"
#include "support/failpoint.h"
#include "support/timer.h"

namespace galois::runtime {

/**
 * Thrown by the DetExecutor progress watchdog when the scheduler stops
 * making progress: a configured number of consecutive rounds committed
 * zero tasks. With a correct cautious operator this is impossible (the
 * minimal-id task of a round always holds all its marks), so the
 * watchdog converts an otherwise-infinite scheduling loop — typically
 * caused by an operator that acquires locations after its failsafe
 * point — into a fail-fast diagnostic naming the stuck task ids.
 * Because rounds are deterministic, the diagnostic is identical on
 * every thread count.
 */
class LivelockError : public std::runtime_error
{
  public:
    explicit LivelockError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/**
 * Thrown by the wall-clock job watchdog (DetOptions::wallDeadlineSeconds)
 * or by external cancellation (DetOptions::cancelFlag). Where the
 * livelock watchdog bounds *rounds without progress*, this bounds the
 * *total wall time* of a run — the per-job deadline of the resident
 * service. Checked at round boundaries only, so a run is never
 * preempted mid-round: every effect visible at the deadline is a whole
 * number of deterministic rounds, and the executor's usual
 * finish-the-round unwind (mark release, deterministic error
 * selection) applies. The *round* at which a wall-clock deadline trips
 * naturally depends on host speed — a deadline abort is a fault, not a
 * schedule, and produces no verifiable receipt.
 */
class DeadlineError : public std::runtime_error
{
  public:
    explicit DeadlineError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** Tuning of the deterministic scheduler. The output of a run is a
 *  deterministic function of these values and the input alone — never of
 *  the thread count or timing (the portability property). The defaults
 *  are the parameterless adaptive policy of Section 3.2. */
struct DetOptions
{
    /** Continuation optimization (suspend at failsafe, resume at commit). */
    bool continuation = true;
    /** Spread adjacent tasks across rounds (locality optimization). */
    bool localitySpread = true;
    /** Commit-ratio target of the adaptive window policy. */
    double commitTarget = 0.95;
    /** Window never shrinks below this many tasks. */
    std::uint64_t minWindow = 16;
    /**
     * First window of a generation (defaults to 4*minWindow when 0).
     * Deliberately small: the adaptive policy doubles its way up in a
     * handful of rounds when tasks are independent, while a large
     * initial window is disastrous for dependence-heavy starts (e.g.
     * Delaunay insertion, where early tasks all conflict on the root
     * bucket and every inspected task pays a neighborhood proportional
     * to the whole input).
     */
    std::uint64_t initialWindow = 0;
    /** Number of interleave buckets for the locality spread. */
    std::uint64_t spreadBuckets = 61;
    /**
     * Non-zero: disable the adaptive policy and use this fixed window
     * size. Exists for the ablation study only — it reintroduces exactly
     * the hand-tuned round-size parameter the paper's adaptive policy
     * eliminates (output remains thread-count invariant, but now depends
     * on a knob whose best value is machine- and input-specific).
     */
    std::uint64_t fixedWindow = 0;
    /**
     * Progress watchdog: fail the run with a LivelockError after this
     * many *consecutive* rounds that committed zero tasks (0 disables).
     * A correct cautious operator commits at least one task per round
     * (the minimal-id task always keeps its marks), so any value large
     * enough to ride out flukes — there are none; zero-commit rounds
     * repeat identically — detects only genuine livelock.
     */
    std::uint64_t watchdogRounds = 64;
    /**
     * Wall-clock job watchdog: fail the run with a DeadlineError once
     * this many seconds have elapsed, checked at round boundaries
     * (0 disables). The per-job deadline of the resident service.
     */
    double wallDeadlineSeconds = 0;
    /**
     * External cancellation: when non-null and set, the run fails with
     * a DeadlineError at the next round boundary. The flag may be set
     * from any thread (the service's control plane); the executor only
     * reads it.
     */
    const std::atomic<bool>* cancelFlag = nullptr;
    /**
     * Called after every round with (window, attempted, committed).
     * Because the entire schedule is deterministic, the sequence of hook
     * invocations is itself identical across thread counts — the
     * portability tests assert this round-by-round.
     */
    std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>
        roundHook;
    /**
     * Test-only: seed a pointer-ordered tiebreak into the id-assignment
     * sort — the canonical environment-determinism bug the detsan v2
     * audit layer exists to catch (tests/envaudit_test.cpp). The
     * tiebreak only fires on (parent id, birth rank) ties, which never
     * occur for well-formed pushes, so the schedule stays deterministic
     * while the leak is structurally real and both the dynamic EnvLeak
     * checker and scripts/detaudit.sh can observe it. Never enable
     * outside tests.
     */
    bool envLeakProbe = false;

    /**
     * Validate and sanitize: rejects knobs that break the scheduler
     * outright (commitTarget outside (0, 1] — the window policy divides
     * by it) with std::invalid_argument, and clamps degenerate but
     * recoverable ones (minWindow == 0 and spreadBuckets == 0 become 1;
     * a zero minWindow would otherwise freeze the adaptive window at
     * zero and spin forever on a non-empty queue). Every executeDet run
     * goes through this, so a bad DetOptions fails fast and identically
     * on every thread count instead of hanging or dividing by zero.
     */
    DetOptions
    validated() const
    {
        if (!(commitTarget > 0.0) || commitTarget > 1.0) {
            throw std::invalid_argument(
                "DetOptions::commitTarget must be in (0, 1], got " +
                std::to_string(commitTarget));
        }
        if (wallDeadlineSeconds < 0) {
            throw std::invalid_argument(
                "DetOptions::wallDeadlineSeconds must be >= 0, got " +
                std::to_string(wallDeadlineSeconds));
        }
        DetOptions v = *this;
        v.minWindow = std::max<std::uint64_t>(1, minWindow);
        v.spreadBuckets = std::max<std::uint64_t>(1, spreadBuckets);
        return v;
    }

    /** The window-policy subset of these options. */
    WindowConfig
    windowConfig() const
    {
        WindowConfig w;
        w.commitTarget = commitTarget;
        w.minWindow = minWindow;
        w.initialWindow = initialWindow;
        w.fixedWindow = fixedWindow;
        return w;
    }
};

/**
 * DIG executor for tasks of type T run by operator F, admitting rounds
 * by Admission (WindowPolicy for Exec::Det, ReservationPolicy for
 * Exec::DetRes; see runtime/window.h).
 *
 * Usage: construct, then run(initial). One-shot object.
 */
template <typename T, typename F, typename Admission = WindowPolicy>
class DetExecutor
{
  public:
    DetExecutor(F& op, unsigned threads, const DetOptions& opt,
                Admission admission, bool use_cache,
                bool trace_rounds = false)
        : op_(op),
          opt_(opt.validated()),
          engine_(threads, use_cache),
          idService_(opt_.localitySpread ? opt_.spreadBuckets : 1,
                     engine_.threads(), opt_.envLeakProbe),
          admission_(std::move(admission)),
          lanes_(engine_.threads()),
          outs_(engine_.threads())
    {
        engine_.enableTrace(trace_rounds);
        for (unsigned t = 0; t < engine_.threads(); ++t)
            scratchArenas_.emplace_back();
    }

    /** Execute all tasks; returns aggregate statistics. */
    RunReport
    run(const std::vector<T>& initial)
    {
        report_.traceDigest = kFnv1aOffset;

        // Job watchdog: deadline/cancellation checks ride the engine's
        // round-boundary cancellation hook, so they inherit its fault
        // containment (finish the round, release marks, stop cleanly).
        if (opt_.wallDeadlineSeconds > 0 || opt_.cancelFlag) {
            deadlineTimer_.start();
            engine_.setCancelCheck([this] { checkJobWatchdog(); });
        }

        // Seed generation 0: birth rank is the iteration-order position,
        // matching "ids based on the iteration order of the C++ iterator".
        children_.reserve(initial.size());
        for (std::size_t i = 0; i < initial.size(); ++i)
            children_.push_back(PendingTask<T>{initial[i], 0, i});

        // One SPMD region per generation: the id-assignment sort runs
        // between regions (where the parallel sort may use the pool
        // itself), the rounds run inside with barriers only.
        while (!children_.empty() &&
               !failed_.load(std::memory_order_acquire)) {
            ++report_.generations;
            try {
                buildGeneration();
            } catch (...) {
                recordError(kBookkeepingErrorId);
                break;
            }
            admission_.beginGeneration();
            carry_.clear();
            carryPos_ = 0;
            queuePos_ = 0;
            engine_.spmd([&](unsigned tid) { spmd(tid); });
        }

        if (failed_.load(std::memory_order_acquire)) {
            // A task or bookkeeping phase failed. The failing round ran
            // to completion (so the committed set and the error are
            // deterministic — see spmd()), and every round — including
            // the failing one — released all of its marks in its select
            // phase, so the user's data structures are
            // already clean. Deliver the winning exception: the one
            // recorded for the smallest task id, which is the same on
            // every thread count.
            std::rethrow_exception(firstError_);
        }

        engine_.finish(report_);
        return report_;
    }

  private:
    /** Per-thread output of one round's select phase. */
    struct PhaseOut
    {
        std::vector<std::uint32_t> selected; //!< compactSelect output
        std::vector<std::uint32_t> deferred; //!< flagged/failed at select
        std::vector<std::uint32_t> lateFailed; //!< threw in commit path
        std::vector<std::uint32_t> failed; //!< merged deferral, slot order
        std::vector<PendingTask<T>> children;
        std::vector<std::uint64_t> committedIds; //!< id order (trace digest)
        std::uint64_t committed = 0;
    };

    // ------------------------------------------------------------------
    // SPMD driver (Figure 2)
    // ------------------------------------------------------------------

    /**
     * SPMD round loop: DetExecutor's policies plugged into the engine's
     * round protocol. Fault discipline: no parallel phase may throw (a
     * throwing participant would strand its peers at the next barrier),
     * and an error never truncates a round. A failing task is excluded
     * and its exception recorded, but every other task of the round
     * still inspects/commits exactly as it would have — so the final
     * state at the error is the deterministic "all rounds up to and
     * including the failing one, minus the failing tasks", independent
     * of thread count. The loop then stops at the next round boundary.
     */
    void
    spmd(unsigned tid)
    {
        UserContext<T> ctx;
        engine_.bindContext(ctx, tid);
        ctx.bindArena(&scratchArenas_[tid]);

        engine_.roundLoop(
            tid,
            /*assemble=*/[this] { return assembleRound(); },
            /*phase1=*/
            [this, &ctx](unsigned t) { inspectSlice(t, ctx); },
            /*mid=*/[this] { foldRound(); },
            /*phase2=*/
            [this, &ctx](unsigned t) { selectSlice(t, ctx); },
            /*merge=*/[this] { mergeRound(); },
            /*on_error=*/[this] { recordError(kBookkeepingErrorId); });
    }

    /**
     * Bookkeeping (single-threaded, deterministic) errors use id 0 —
     * smaller than any task id, so they deterministically win over task
     * errors of the same round.
     */
    static constexpr std::uint64_t kBookkeepingErrorId = 0;

    static constexpr const AdmissionLabels& kLabels = Admission::kLabels;

    /**
     * Round-boundary job watchdog (via the engine's cancellation hook):
     * external cancellation and the wall-clock deadline. Throws
     * DeadlineError; the hook's containment turns that into the
     * standard finish-the-round unwind.
     */
    void
    checkJobWatchdog()
    {
        if (opt_.cancelFlag &&
            opt_.cancelFlag->load(std::memory_order_relaxed)) {
            throw DeadlineError(
                std::string(kLabels.executor) +
                " job watchdog: run cancelled (generation " +
                std::to_string(report_.generations) + ", round " +
                std::to_string(report_.rounds) + ")");
        }
        if (opt_.wallDeadlineSeconds > 0 &&
            deadlineTimer_.seconds() > opt_.wallDeadlineSeconds) {
            throw DeadlineError(
                std::string(kLabels.executor) +
                " job watchdog: wall-clock deadline of " +
                std::to_string(opt_.wallDeadlineSeconds) +
                " s exceeded (generation " +
                std::to_string(report_.generations) + ", round " +
                std::to_string(report_.rounds) + ")");
        }
    }

    /**
     * Record an exception attributed to the given task id, keeping the
     * smallest id seen. All errors of a run occur in one deterministic
     * round (failed_ stops the loop at the next round boundary) and the
     * smallest-id error is always reached (a slice only skips nothing —
     * tasks after an error still execute), so the winner — and with it
     * the exception the caller observes — is thread-count invariant.
     */
    void
    recordError(std::uint64_t id) noexcept
    {
        errLock_.lock();
        if (!failed_.load(std::memory_order_relaxed) || id < errorId_) {
            firstError_ = std::current_exception();
            errorId_ = id;
            failed_.store(true, std::memory_order_release);
        }
        errLock_.unlock();
    }

    // ------------------------------------------------------------------
    // Serial bookkeeping steps (between/inside barriers)
    // ------------------------------------------------------------------

    /**
     * Turn this generation's pending children into the id-ordered SoA
     * lanes: the IdService ranks them deterministically (the sort of
     * Figure 2 line 5 plus the locality spread) and emits ascending ids
     * 1..n, which the TaskStore appends in order — so slot i holds the
     * task with id i+1 and slot order IS id order. beginBuild rewinds
     * the lane arena first, so the previous generation's lanes hand
     * their slabs straight back — steady state allocates nothing.
     */
    void
    buildGeneration()
    {
        FAILPOINT(kLabels.idsortSite, report_.generations);
        store_.beginBuild(children_.size());
        idService_.assign(children_,
                          [this](PendingTask<T>&& c, std::uint64_t id) {
                              store_.emplace(std::move(c.item), id);
                          });
    }

    /** getWindowOfTasks: take the id-smallest admitted prefix into cur_. */
    bool
    assembleRound()
    {
        const std::uint64_t remaining =
            (carry_.size() - carryPos_) + (store_.size() - queuePos_);
        if (remaining == 0 || failed_.load(std::memory_order_acquire))
            return false;

        const std::uint64_t eff_window =
            std::min<std::uint64_t>(admission_.size(), remaining);
        cur_.clear();
        // Deferred tasks (carry) have smaller ids than untried ones, so
        // they come first.
        while (cur_.size() < eff_window && carryPos_ < carry_.size())
            cur_.push_back(carry_[carryPos_++]);
        while (cur_.size() < eff_window && queuePos_ < store_.size())
            cur_.push_back(static_cast<std::uint32_t>(queuePos_++));

        for (PhaseOut& o : outs_) {
            o.selected.clear();
            o.deferred.clear();
            o.lateFailed.clear();
            o.failed.clear();
            o.children.clear();
            o.committedIds.clear();
            o.committed = 0;
        }
        return true;
    }

    /**
     * Serial mark fold (the mid step, run between inspect and select
     * while every peer is parked in the barrier): replay the collected
     * acquire spans in ascending id order — threads in tid order, slice
     * positions in order, which is id order because slices partition
     * the id-ordered cur_ contiguously — claiming each location with
     * plain stores and flagging losers (runtime/conflict.h). Failed
     * tasks fold too: the entries they collected before throwing are a
     * deterministic prefix of their neighborhood and must interfere
     * exactly like the eager protocol's marks-written-before-the-throw.
     * Loads and plain stores only: the fold cannot fail part-way, and
     * the marks it installs are released by their owners' threads in
     * select (releaseMarks).
     */
    void
    foldRound()
    {
        for (unsigned t = 0; t < engine_.threads(); ++t) {
            auto [begin, end] = engine_.slice(cur_.size(), t);
            foldSliceClaims(store_, cur_, begin, end, lanes_[t].data());
        }
    }

    /**
     * Deterministic merge + admission update + progress watchdog.
     * Runs even when an error was recorded this round: the round
     * completed in full (see spmd), so merging keeps the bookkeeping
     * consistent and the roundHook trace deterministic. The round's
     * marks were already released in select, so a throw here
     * (failpoint, allocation, watchdog) leaves them clean.
     */
    void
    mergeRound()
    {
        FAILPOINT(kLabels.mergeSite, report_.rounds);
        // Thread t owned a contiguous, id-ordered slice of cur, so
        // concatenating per-thread failure lists in thread order
        // preserves id order.
        std::vector<std::uint32_t> new_carry;
        std::uint64_t committed = 0;
        for (PhaseOut& o : outs_) {
            new_carry.insert(new_carry.end(), o.failed.begin(),
                             o.failed.end());
            for (PendingTask<T>& c : o.children)
                children_.push_back(std::move(c));
            // Thread t's slice of cur was contiguous and id-ordered, so
            // folding per-thread commit lists in thread order folds the
            // round's selected set in id order — a pure function of the
            // schedule, never of timing.
            for (std::uint64_t id : o.committedIds) {
                // Environment audit: committed ids are the trace digest's
                // input — a tainted id here means an environmental value
                // reached the published schedule. Checked serially in id
                // order, so the check count is schedule-invariant.
                DETSAN_VALUE("digest.committed-id", id);
                report_.traceDigest = fnv1aMix(report_.traceDigest, id);
            }
            committed += o.committed;
        }
        report_.traceDigest = fnv1aMix(report_.traceDigest, committed);
        new_carry.insert(new_carry.end(), carry_.begin() + carryPos_,
                         carry_.end());
        carry_ = std::move(new_carry);
        carryPos_ = 0;

        ++report_.rounds;
        report_.roundTrace.push_back(
            RoundSample{admission_.size(), cur_.size(), committed});
        if (opt_.roundHook)
            opt_.roundHook(admission_.size(), cur_.size(), committed);
        admission_.update(cur_.size(), committed);

        // Progress watchdog: a correct cautious operator commits the
        // minimal-id task of every round, so repeated zero-commit rounds
        // can only mean livelock (typically a non-cautious operator
        // whose select-phase re-execution conflicts forever). Fail fast
        // with a diagnostic instead of spinning; everything in the
        // message is a deterministic function of the schedule.
        if (committed != 0) {
            zeroCommitRounds_ = 0;
        } else if (opt_.watchdogRounds != 0 &&
                   ++zeroCommitRounds_ >= opt_.watchdogRounds &&
                   !failed_.load(std::memory_order_acquire)) {
            std::string ids;
            const std::size_t show = std::min<std::size_t>(8, cur_.size());
            for (std::size_t i = 0; i < show; ++i) {
                if (i != 0)
                    ids += ", ";
                ids += std::to_string(store_.id(cur_[i]));
            }
            if (cur_.size() > show)
                ids += ", ...";
            throw LivelockError(
                std::string(kLabels.executor) + " progress watchdog: " +
                std::to_string(zeroCommitRounds_) +
                " consecutive rounds committed 0 tasks (generation " +
                std::to_string(report_.generations) + ", round " +
                std::to_string(report_.rounds) + ", " + kLabels.sizeWord +
                " " + std::to_string(admission_.size()) + ", " +
                std::to_string((carry_.size() - carryPos_) +
                               (store_.size() - queuePos_)) +
                " tasks pending); stuck task ids: [" + ids +
                "]; the operator is likely not cautious (acquires after "
                "its failsafe point)");
        }
    }

    // ------------------------------------------------------------------
    // Parallel phases
    // ------------------------------------------------------------------

    /**
     * Inspect phase: run every task in the slice to its failsafe point,
     * collecting its acquire set into this thread's lane and recording
     * the span it occupies. No mark traffic — conflicts are resolved by
     * the serial fold.
     *
     * A task that raises a real exception (operator bug, bad_alloc, an
     * injected fault) is excluded from this round's selection and its
     * error recorded — but the rest of the slice still inspects, and
     * the locations it collected before throwing still fold (they are a
     * deterministic prefix of its neighborhood), so the round's
     * interference graph — and hence everything downstream — remains a
     * pure function of the schedule.
     */
    void
    inspectSlice(unsigned tid, UserContext<T>& ctx)
    {
#if defined(DETGALOIS_DETSAN)
        // The round counters advanced before the barrier we just
        // crossed; label this thread's sanitizer scope with them.
        analysis::setRound(report_.generations, report_.rounds + 1);
#endif
        auto [begin, end] = engine_.slice(cur_.size(), tid);
        std::vector<Lockable*>& lane = lanes_[tid];
        lane.clear();
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t slot = cur_[i];
            const auto off = static_cast<std::uint32_t>(lane.size());
            try {
                FAILPOINT(kLabels.inspectSite, store_.id(slot));
                ctx.beginInspect(store_.record(slot), &lane,
                                 &store_.local(slot),
                                 &store_.localDeleter(slot));
                // The operator returns at its failsafe point
                // (tryCautiousPoint()) or, with no write at all, at its
                // end: either way its whole run was prefix.
                op_(store_.item(slot), ctx);
            } catch (...) {
                recordError(store_.id(slot));
                store_.setTaskFailed(slot);
            }
            store_.span(slot) = AcquireSpan{
                off, static_cast<std::uint32_t>(lane.size()) - off};
        }
#if defined(DETGALOIS_DETSAN)
        analysis::endTask();
#endif
    }

    /**
     * Select-and-execute phase: one linear compactSelect over the flag
     * lanes partitions the slice into the selected independent set and
     * the deferred rest (prefix-sum selection — no per-task mark
     * checks, no mark traffic); then only the selected tasks execute.
     * A flagged task never runs here at all: under the eager protocol
     * its re-execution always aborted at the first lost acquire before
     * reading contested data, so skipping it is behavior-identical and
     * is what removes the redundant re-acquisition work.
     *
     * The thread releases every mark its slice's records hold
     * (releaseMarks): a committed task's right after its commit — not
     * before, since a Mode::DetCheck task re-reads its own marks — and a
     * deferred task's just before clearForRetry wipes its span. Either
     * way the record is still in cache from the step before.
     *
     * The thread's round arena — holding every continuation object its
     * slice saved during inspect — is rewound at the end: destroyLocal
     * runs on both the commit and the defer path, and inspect/select
     * share the same slice partition, so nothing in the arena outlives
     * this phase.
     */
    void
    selectSlice(unsigned tid, UserContext<T>& ctx)
    {
        auto [begin, end] = engine_.slice(cur_.size(), tid);
        PhaseOut& out = outs_[tid];
        compactSelect(store_, cur_, begin, end, out.selected, out.deferred);

        for (const std::uint32_t slot : out.selected) {
            bool ok;
            try {
                FAILPOINT(kLabels.commitSite, store_.id(slot));
                if (opt_.continuation) {
                    // Resume from the saved continuation state; the
                    // collected span is the declared neighborhood.
                    const AcquireSpan s = store_.span(slot);
                    ctx.beginResume(store_.record(slot),
                                    lanes_[tid].data() + s.off, s.len,
                                    &store_.local(slot),
                                    &store_.localDeleter(slot));
                    op_(store_.item(slot), ctx);
                    ok = true;
                } else {
                    // Baseline ablation: re-execute from the beginning;
                    // acquires verify that every mark still carries our
                    // id (they do — a selected task won all of its
                    // locations, and only this thread releases them,
                    // after this commit).
                    ctx.beginTask(UserContext<T>::Mode::DetCheck,
                                  store_.record(slot), nullptr,
                                  &store_.local(slot),
                                  &store_.localDeleter(slot));
                    try {
                        op_(store_.item(slot), ctx);
                        ok = true;
                    } catch (const ConflictSignal&) {
                        ok = false;
                    }
                }
                if (ok) {
                    harvestChildren(ctx, store_.id(slot), out);
                    out.committedIds.push_back(store_.id(slot));
                    ++out.committed;
                    ++ctx.stats().committed;
                }
            } catch (...) {
                // Real failure in the commit path (operator bug,
                // allocation failure, injected fault). Record it against
                // this task id and finish the slice: peers' commits must
                // not depend on where this thread's slice boundary fell.
                recordError(store_.id(slot));
                store_.setTaskFailed(slot);
                ok = false;
            }
            if (ok) {
                releaseMarks(tid, slot);
                store_.destroyLocal(slot);
            } else {
                out.lateFailed.push_back(slot);
            }
        }
#if defined(DETGALOIS_DETSAN)
        analysis::endTask();
#endif

        // Deferral = flagged-at-select ∪ failed-in-commit, merged back
        // into slot (= id) order; both inputs are ascending. Reset the
        // deferred tasks for their retry in a later round.
        out.failed.resize(out.deferred.size() + out.lateFailed.size());
        std::merge(out.deferred.begin(), out.deferred.end(),
                   out.lateFailed.begin(), out.lateFailed.end(),
                   out.failed.begin());
        for (const std::uint32_t slot : out.failed) {
            releaseMarks(tid, slot);
            store_.clearForRetry(slot);
            store_.destroyLocal(slot);
            ++ctx.stats().aborted;
        }

        // Every continuation object this thread's slice saved has been
        // destroyed above; drop the context's scratch (it lives in the
        // same arena) and rewind the arena for the next round.
        ctx.endTaskScope();
        scratchArenas_[tid].reset();
    }

    /** Clear the marks slot's record holds (thread tid's slice). */
    void
    releaseMarks(unsigned tid, std::uint32_t slot)
    {
        const AcquireSpan s = store_.span(slot);
        releaseHeldMarks(store_.record(slot), lanes_[tid].data() + s.off,
                         s.len);
    }

    /** Move tasks pushed by a committed task into the next generation. */
    void
    harvestChildren(UserContext<T>& ctx, std::uint64_t parent_id,
                    PhaseOut& out)
    {
        std::vector<T>& pushes = ctx.pendingPushes();
        std::vector<std::uint64_t>& ids = ctx.pendingPushIds();
        if (!ids.empty()) {
            // Pre-assigned ids (Section 3.3, third optimization): the
            // generation sort orders by (id, 0) i.e. the user's ids.
            assert(ids.size() == pushes.size() &&
                   "mixed push()/push(id) within one task");
            for (std::size_t j = 0; j < pushes.size(); ++j)
                out.children.push_back(PendingTask<T>{pushes[j], ids[j], 0});
        } else {
            for (std::size_t j = 0; j < pushes.size(); ++j)
                out.children.push_back(
                    PendingTask<T>{pushes[j], parent_id, j});
        }
    }

    // ------------------------------------------------------------------
    // State
    // ------------------------------------------------------------------

    F& op_;
    DetOptions opt_;
    RoundEngine engine_;
    IdService idService_;
    Admission admission_; //!< how many tasks each round admits

    support::Timer deadlineTimer_; //!< job-watchdog clock (run() start)
    TaskStore<T> store_; //!< this generation's SoA task lanes
    std::deque<support::Arena> scratchArenas_; //!< per-thread round arenas
    std::vector<PendingTask<T>> children_; //!< next generation (unordered)

    // Round state shared between threads; written in serial sections
    // between/inside barriers, read by everyone after.
    std::vector<std::uint32_t> cur_; //!< this round's slots, id order
    std::vector<std::uint32_t> carry_; //!< deferred slots, id order
    std::size_t carryPos_ = 0;
    std::size_t queuePos_ = 0; //!< next untried slot of the generation
    std::vector<std::vector<Lockable*>> lanes_; //!< per-thread acquire lanes
    std::vector<PhaseOut> outs_;

    std::atomic<bool> failed_{false};
    std::exception_ptr firstError_;
    std::uint64_t errorId_ = ~std::uint64_t(0); //!< id owning firstError_
    std::uint64_t zeroCommitRounds_ = 0; //!< consecutive, for the watchdog
    SpinLock errLock_;

    RunReport report_;
};

/**
 * Run all tasks under deterministic DIG scheduling with the adaptive
 * window (Exec::Det).
 *
 * The output state is a function of (initial, op, opt) only — never of
 * the thread count: this single entry point provides the paper's
 * portability and parameter-freedom.
 */
template <typename T, typename F>
RunReport
executeDet(const std::vector<T>& initial, F&& op, unsigned threads,
           const DetOptions& opt = DetOptions(), bool use_cache = false,
           bool trace_rounds = false)
{
    DetExecutor<T, std::remove_reference_t<F>> exec(
        op, threads, opt, WindowPolicy(opt.validated().windowConfig()),
        use_cache, trace_rounds);
    return exec.run(initial);
}

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_EXECUTOR_DET_H
