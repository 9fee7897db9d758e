/**
 * @file
 * Deterministic-reservations executor (Exec::DetRes) — the PBBS
 * reserve/commit/retry discipline (Blelloch et al.; the paper's third
 * comparison point) promoted to a first-class runtime backend, peer to
 * the DIG executor.
 *
 * Like src/pbbs/reservations.h (the app-level speculative_for engine
 * this generalizes), tasks run in rounds over an id-ordered *prefix* of
 * the remaining work:
 *
 *   1. take a prefix of the pending tasks (ReservationPolicy: a fixed
 *      round-size cap with BRIO-style committed-count growth — the
 *      hand-tuned parameter the paper contrasts with DIG's adaptive
 *      window),
 *   2. reserve: run every prefix task to its failsafe point, collecting
 *      its neighborhood into a per-thread acquire lane (no mark
 *      traffic),
 *   3. resolve: fold the collected claims serially in id order into the
 *      mark words — smallest id wins every location, losers are
 *      flagged (the same batched-mark fold the DIG executor uses),
 *   4. commit: execute exactly the unflagged tasks — those holding all
 *      of their reservations — and retry the rest in a later round, in
 *      id order; each thread releases the reservations its own slice's
 *      records hold as it goes (the same owner-thread release as the DIG
 *      executor).
 *
 * This file deliberately composes the same five unit-tested mechanisms
 * as executor_det.h — RoundEngine (SPMD harness), TaskStore (SoA task
 * lanes), IdService (deterministic ids + locality spread),
 * ReservationPolicy (runtime/window.h) and the arena — so the two
 * backends differ in exactly one policy: how many tasks a round admits.
 *
 * Determinism argument: ids, the prefix schedule (a pure function of
 * per-round committed counts) and the serial id-order fold are all
 * thread-count invariant, so the committed set of every round — and the
 * final state — is too. Moreover, because every round admits an
 * id-*prefix* and a committing task beat every pending smaller-id
 * conflicting task, each task observes exactly the state the serial
 * id-order execution would show it. Hence DetRes reaches the *same
 * final state* as Exec::Det and Exec::DetRef (result determinism) even
 * though its round boundaries — and therefore its trace digest — differ
 * (no schedule identity). tests/differential_test.cpp pins both halves
 * of that claim.
 *
 * Fault semantics, the livelock/job watchdogs and the continuation
 * optimization carry over unchanged from the DIG executor; the
 * failpoint sites are detres.idsort / detres.reserve / detres.commit /
 * detres.merge (plus the shared arena.chunk inside TaskStore).
 */

#ifndef DETGALOIS_RUNTIME_EXECUTOR_DETRES_H
#define DETGALOIS_RUNTIME_EXECUTOR_DETRES_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/detsan.h"
#include "runtime/context.h"
#include "runtime/conflict.h"
#include "runtime/executor_det.h" // DetOptions, LivelockError, DeadlineError
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

/** Tuning of the deterministic-reservations prefix schedule. Like
 *  DetOptions, the output of a run is a function of these values and
 *  the input alone — never of the thread count. Unlike DetOptions,
 *  roundSize is a genuine hand-tuned parameter (the PBBS round size);
 *  changing it changes the schedule (and the DetRes digest) but never
 *  the final state. */
struct DetResOptions
{
    /** Tasks per round, hard cap — the PBBS round-size parameter. */
    std::uint64_t roundSize = 4096;
    /** Prefix floor while nothing has committed yet (BRIO warm-up). */
    std::uint64_t initialPrefix = 32;

    /** Validate and sanitize: clamps degenerate values (a zero
     *  roundSize or initialPrefix would freeze the prefix at zero and
     *  spin forever on a non-empty queue). */
    DetResOptions
    validated() const
    {
        DetResOptions v = *this;
        v.roundSize = std::max<std::uint64_t>(1, roundSize);
        v.initialPrefix = std::max<std::uint64_t>(1, initialPrefix);
        return v;
    }

    /** The prefix-policy subset of these options. */
    ReservationConfig
    reservationConfig() const
    {
        ReservationConfig r;
        r.roundSize = roundSize;
        r.initialPrefix = initialPrefix;
        return r;
    }
};

/**
 * Deterministic-reservations executor for tasks of type T run by
 * operator F. Usage: construct, then run(initial). One-shot object.
 *
 * The shared DetOptions (continuation, locality spread, fusion,
 * watchdogs, hooks) are honored exactly as the DIG executor honors
 * them — in particular the id-assignment knobs, so a DetRes run and a
 * Det run of the same workload number their tasks identically (the
 * premise of the four-backend differential matrix).
 */
template <typename T, typename F>
class DetResExecutor
{
  public:
    DetResExecutor(F& op, unsigned threads, const DetOptions& opt,
                   const DetResOptions& res_opt, bool use_cache,
                   bool trace_rounds = false)
        : op_(op),
          opt_(opt.validated()),
          resOpt_(res_opt.validated()),
          engine_(threads, use_cache),
          idService_(opt_.localitySpread ? opt_.spreadBuckets : 1,
                     engine_.threads(), opt_.envLeakProbe),
          prefix_(resOpt_.reservationConfig()),
          lanes_(engine_.threads()),
          outs_(engine_.threads())
    {
        engine_.enableTrace(trace_rounds);
        engine_.setFusion(opt_.fusion);
        for (unsigned t = 0; t < engine_.threads(); ++t)
            scratchArenas_.emplace_back();
    }

    /** Execute all tasks; returns aggregate statistics. */
    RunReport
    run(const std::vector<T>& initial)
    {
        report_.traceDigest = kFnv1aOffset;

        if (opt_.wallDeadlineSeconds > 0 || opt_.cancelFlag) {
            deadlineTimer_.start();
            engine_.setCancelCheck([this] { checkJobWatchdog(); });
        }

        children_.reserve(initial.size());
        for (std::size_t i = 0; i < initial.size(); ++i)
            children_.push_back(PendingTask<T>{initial[i], 0, i});

        while (!children_.empty() &&
               !failed_.load(std::memory_order_acquire)) {
            ++report_.generations;
            try {
                buildGeneration();
            } catch (...) {
                recordError(kBookkeepingErrorId);
                break;
            }
            prefix_.beginGeneration();
            carry_.clear();
            carryPos_ = 0;
            queuePos_ = 0;
            engine_.spmd([&](unsigned tid) { spmd(tid); });
        }

        if (failed_.load(std::memory_order_acquire)) {
            // Same containment as the DIG executor: the failing round
            // ran to completion and released its marks, and the
            // smallest-id error wins deterministically.
            std::rethrow_exception(firstError_);
        }

        engine_.finish(report_);
        return report_;
    }

  private:
    /** Per-thread output of one round's commit phase. */
    struct PhaseOut
    {
        std::vector<std::uint32_t> selected;
        std::vector<std::uint32_t> deferred;
        std::vector<std::uint32_t> lateFailed;
        std::vector<std::uint32_t> failed;
        std::vector<PendingTask<T>> children;
        std::vector<std::uint64_t> committedIds;
        std::uint64_t committed = 0;
    };

    /**
     * SPMD round loop: reserve (parallel) -> resolve (serial fold) ->
     * commit (parallel) -> merge (serial), on the same fused/unfused
     * engine protocol — and under the same fault discipline — as the
     * DIG executor's inspect/fold/select/merge.
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
            [this, &ctx](unsigned t) { reserveSlice(t, ctx); },
            /*mid=*/[this] { resolveRound(); },
            /*phase2=*/
            [this, &ctx](unsigned t) { commitSlice(t, ctx); },
            /*merge=*/[this] { mergeRound(); },
            /*on_error=*/[this] { recordError(kBookkeepingErrorId); });
    }

    static constexpr std::uint64_t kBookkeepingErrorId = 0;

    void
    checkJobWatchdog()
    {
        if (opt_.cancelFlag &&
            opt_.cancelFlag->load(std::memory_order_relaxed)) {
            throw DeadlineError(
                "DetResExecutor job watchdog: run cancelled (generation " +
                std::to_string(report_.generations) + ", round " +
                std::to_string(report_.rounds) + ")");
        }
        if (opt_.wallDeadlineSeconds > 0 &&
            deadlineTimer_.seconds() > opt_.wallDeadlineSeconds) {
            throw DeadlineError(
                "DetResExecutor job watchdog: wall-clock deadline of " +
                std::to_string(opt_.wallDeadlineSeconds) +
                " s exceeded (generation " +
                std::to_string(report_.generations) + ", round " +
                std::to_string(report_.rounds) + ")");
        }
    }

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
    // Serial bookkeeping steps
    // ------------------------------------------------------------------

    /** Same deterministic id assignment as the DIG executor (including
     *  the locality spread): slot order IS id order. */
    void
    buildGeneration()
    {
        FAILPOINT("detres.idsort", report_.generations);
        store_.beginBuild(children_.size());
        idService_.assign(children_,
                          [this](PendingTask<T>&& c, std::uint64_t id) {
                              store_.emplace(std::move(c.item), id);
                          });
    }

    /** Take the id-smallest prefix of the remaining work into cur_. */
    bool
    assembleRound()
    {
        const std::uint64_t remaining =
            (carry_.size() - carryPos_) + (store_.size() - queuePos_);
        if (remaining == 0 || failed_.load(std::memory_order_acquire))
            return false;

        const std::uint64_t eff_prefix =
            std::min<std::uint64_t>(prefix_.size(), remaining);
        cur_.clear();
        // Retried tasks have smaller ids than untried ones: first.
        while (cur_.size() < eff_prefix && carryPos_ < carry_.size())
            cur_.push_back(carry_[carryPos_++]);
        while (cur_.size() < eff_prefix && queuePos_ < store_.size())
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
     * Resolve step (serial, between the reserve and commit barriers):
     * replay the collected acquire spans in ascending id order,
     * claiming each location with plain stores and flagging losers.
     * This *is* the reservation resolution: where the app-level PBBS
     * engine resolves races with an order-insensitive mark-max CAS, the
     * runtime backend gets the identical winner set from the batched
     * serial fold at zero atomic read-modify-writes. Loads and plain
     * stores only, so the fold cannot fail part-way.
     */
    void
    resolveRound()
    {
        for (unsigned t = 0; t < engine_.threads(); ++t) {
            auto [begin, end] = engine_.slice(cur_.size(), t);
            foldSliceClaims(store_, cur_, begin, end, lanes_[t].data());
        }
    }

    /**
     * Deterministic merge + prefix-schedule update + progress watchdog.
     * The round's marks were already released in commitSlice, so every
     * exit path of a round leaves the user's locations clean.
     */
    void
    mergeRound()
    {
        FAILPOINT("detres.merge", report_.rounds);
        std::vector<std::uint32_t> new_carry;
        std::uint64_t committed = 0;
        for (PhaseOut& o : outs_) {
            new_carry.insert(new_carry.end(), o.failed.begin(),
                             o.failed.end());
            for (PendingTask<T>& c : o.children)
                children_.push_back(std::move(c));
            for (std::uint64_t id : o.committedIds) {
                // Same audit channel as the DIG executor: committed ids
                // feed the published DetRes digest.
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
            RoundSample{prefix_.size(), cur_.size(), committed});
        if (opt_.roundHook)
            opt_.roundHook(prefix_.size(), cur_.size(), committed);
        prefix_.update(cur_.size(), committed);

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
                "DetResExecutor progress watchdog: " +
                std::to_string(zeroCommitRounds_) +
                " consecutive rounds committed 0 tasks (generation " +
                std::to_string(report_.generations) + ", round " +
                std::to_string(report_.rounds) + ", prefix " +
                std::to_string(prefix_.size()) + ", " +
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
     * Reserve phase: run every task in the slice to its failsafe point,
     * collecting its acquire set into this thread's lane — the batched
     * equivalent of speculative_for's per-location reserve() marks.
     * Failed tasks' partial collections still fold, exactly as in the
     * DIG executor, so the interference resolution stays a pure
     * function of the schedule.
     */
    void
    reserveSlice(unsigned tid, UserContext<T>& ctx)
    {
#if defined(DETGALOIS_DETSAN)
        analysis::setRound(report_.generations, report_.rounds + 1);
#endif
        auto [begin, end] = engine_.slice(cur_.size(), tid);
        std::vector<Lockable*>& lane = lanes_[tid];
        lane.clear();
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t slot = cur_[i];
            const auto off = static_cast<std::uint32_t>(lane.size());
            try {
                FAILPOINT("detres.reserve", store_.id(slot));
                ctx.beginInspect(store_.record(slot), &lane,
                                 &store_.local(slot),
                                 &store_.localDeleter(slot));
                op_(store_.item(slot), ctx);
            } catch (const FailsafeSignal&) {
                // Normal: the task stopped at its failsafe point.
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
     * Commit phase: the reservation check is the compactSelect over the
     * loser flags (an unflagged task held every location it reserved);
     * only checked tasks execute, the rest retry in a later round.
     * The thread releases the marks its records hold (releaseMarks) as
     * in the DIG executor: after a task's commit, or before its retry
     * reset wipes its span.
     */
    void
    commitSlice(unsigned tid, UserContext<T>& ctx)
    {
        auto [begin, end] = engine_.slice(cur_.size(), tid);
        PhaseOut& out = outs_[tid];
        compactSelect(store_, cur_, begin, end, out.selected, out.deferred);

        for (const std::uint32_t slot : out.selected) {
            bool ok;
            try {
                FAILPOINT("detres.commit", store_.id(slot));
                if (opt_.continuation) {
                    const AcquireSpan s = store_.span(slot);
                    ctx.beginResume(store_.record(slot),
                                    lanes_[tid].data() + s.off, s.len,
                                    &store_.local(slot),
                                    &store_.localDeleter(slot));
                    op_(store_.item(slot), ctx);
                    ok = true;
                } else {
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
    DetResOptions resOpt_;
    RoundEngine engine_;
    IdService idService_;
    ReservationPolicy prefix_;

    support::Timer deadlineTimer_;
    TaskStore<T> store_;
    std::deque<support::Arena> scratchArenas_;
    std::vector<PendingTask<T>> children_;

    std::vector<std::uint32_t> cur_;
    std::vector<std::uint32_t> carry_;
    std::size_t carryPos_ = 0;
    std::size_t queuePos_ = 0;
    std::vector<std::vector<Lockable*>> lanes_;
    std::vector<PhaseOut> outs_;

    std::atomic<bool> failed_{false};
    std::exception_ptr firstError_;
    std::uint64_t errorId_ = ~std::uint64_t(0);
    std::uint64_t zeroCommitRounds_ = 0;
    SpinLock errLock_;

    RunReport report_;
};

/**
 * Run all tasks under deterministic-reservations scheduling.
 *
 * The output state is a function of (initial, op, opt) only — never of
 * the thread count — and equals the DIG executors' output for the same
 * (initial, op, opt.det): result determinism is shared, only the round
 * schedule (and hence the digest) is backend-specific.
 */
template <typename T, typename F>
RunReport
executeDetRes(const std::vector<T>& initial, F&& op, unsigned threads,
              const DetOptions& opt = DetOptions(),
              const DetResOptions& res_opt = DetResOptions(),
              bool use_cache = false, bool trace_rounds = false)
{
    DetResExecutor<T, std::remove_reference_t<F>> exec(
        op, threads, opt, res_opt, use_cache, trace_rounds);
    return exec.run(initial);
}

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_EXECUTOR_DETRES_H
