/**
 * @file
 * Serial reference implementation of DIG scheduling — the differential
 * oracle of the deterministic executor.
 *
 * This executor re-implements the *semantics* of Figure 2 in the most
 * direct form possible: one thread, plain containers, two passes per
 * round (inspect everything, then select in id order by re-executing
 * and checking marks). It deliberately shares none of the machinery the
 * production executor's performance rests on — no RoundEngine, no
 * barriers, no arenas, no continuation protocol, no per-thread slice
 * partitioning. What it does share are the pure, unit-tested policy
 * components whose outputs define the schedule: IdService (deterministic
 * id assignment), WindowPolicy (adaptive round sizing) and the
 * id-order (markMin) mark discipline of Lockable.
 *
 * Because the committed set of every round is a pure function of the
 * schedule, the reference and the production executor must agree on
 * the round-by-round committed-id sequence — i.e. on
 * RunReport::traceDigest — and on the final state, for every input,
 * operator and thread count. tests/differential_test.cpp asserts
 * exactly that for all applications; a divergence pinpoints a bug in
 * the parallel machinery (continuation resume, arena lifetimes, slice
 * merges) that is *consistent* across thread counts and therefore
 * invisible to the portability tests.
 *
 * Not supported (out of oracle scope): fault-containment semantics —
 * an operator exception propagates immediately instead of finishing
 * the round — and the cache-model/locality instrumentation.
 */

#ifndef DETGALOIS_RUNTIME_EXECUTOR_DET_REF_H
#define DETGALOIS_RUNTIME_EXECUTOR_DET_REF_H

#include <cstdint>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/conflict.h"
#include "runtime/context.h"
#include "runtime/executor_det.h" // DetOptions, LivelockError
#include "runtime/id_service.h"
#include "runtime/stats.h"
#include "runtime/window.h"
#include "support/timer.h"

namespace galois::runtime {

namespace detail {

/** Minimal task record of the reference executor. */
template <typename T>
struct RefRecord : DetRecordBase
{
    T item{};
    std::vector<Lockable*> nbhd; //!< locations marked during inspect
};

} // namespace detail

/**
 * Run all tasks under the serial reference DIG schedule.
 *
 * Produces the same committed-id sequence — and therefore the same
 * traceDigest, round count and final state — as executeDet with the
 * same (initial, op, opt) on any thread count.
 */
template <typename T, typename F>
RunReport
executeDetRef(const std::vector<T>& initial, F&& op,
              const DetOptions& opt = DetOptions())
{
    const DetOptions o = opt.validated();
    const IdService idsvc(o.localitySpread ? o.spreadBuckets : 1, 1);
    WindowPolicy window(o.windowConfig());

    RunReport report;
    report.threads = 1;
    report.traceDigest = kFnv1aOffset;
    support::Timer timer;
    timer.start();

    ThreadStats stats;
    UserContext<T> ctx;
    ctx.bindStats(&stats);

    std::vector<PendingTask<T>> children;
    children.reserve(initial.size());
    for (std::size_t i = 0; i < initial.size(); ++i)
        children.push_back(PendingTask<T>{initial[i], 0, i});

    std::deque<detail::RefRecord<T>> records;
    std::vector<detail::RefRecord<T>*> queue;
    std::vector<detail::RefRecord<T>*> carry;
    std::vector<detail::RefRecord<T>*> cur;
    std::uint64_t zero_commit_rounds = 0;

    while (!children.empty()) {
        ++report.generations;
        records.clear();
        queue.clear();
        idsvc.assign(children, [&](PendingTask<T>&& c, std::uint64_t id) {
            records.emplace_back();
            detail::RefRecord<T>& r = records.back();
            r.item = std::move(c.item);
            r.id = id;
            queue.push_back(&r);
        });
        window.beginGeneration();
        carry.clear();
        std::size_t carry_pos = 0;
        std::size_t queue_pos = 0;

        for (;;) {
            const std::uint64_t remaining =
                (carry.size() - carry_pos) + (queue.size() - queue_pos);
            if (remaining == 0)
                break;

            // getWindowOfTasks: deferred tasks (smaller ids) first.
            const std::uint64_t eff =
                std::min<std::uint64_t>(window.size(), remaining);
            cur.clear();
            while (cur.size() < eff && carry_pos < carry.size())
                cur.push_back(carry[carry_pos++]);
            while (cur.size() < eff && queue_pos < queue.size())
                cur.push_back(queue[queue_pos++]);

            // Inspect pass: every task runs to its failsafe point,
            // accumulating min-id marks over its neighborhood. The
            // reference deliberately keeps the *eager* protocol
            // (one markMin CAS per acquire) while the production
            // executor uses the batched collect-and-fold protocol — so
            // the differential tests compare two independent
            // implementations of the same interference-graph semantics.
            for (detail::RefRecord<T>* r : cur) {
                ctx.beginTask(UserContext<T>::Mode::DetInspectEager, r,
                              &r->nbhd);
                op(r->item, ctx);
            }
#if defined(DETGALOIS_DETSAN)
            analysis::endTask();
#endif

            // Select pass, in id order: re-execute; an acquire of a
            // location whose mark carries another id conflicts, which
            // defers the task to the next round.
            std::vector<detail::RefRecord<T>*> failed;
            std::uint64_t committed = 0;
            for (detail::RefRecord<T>* r : cur) {
                bool ok = true;
                ctx.beginTask(UserContext<T>::Mode::DetCheck, r, &r->nbhd);
                try {
                    op(r->item, ctx);
                } catch (const ConflictSignal&) {
                    ok = false;
                }
                if (ok) {
                    std::vector<T>& pushes = ctx.pendingPushes();
                    std::vector<std::uint64_t>& ids = ctx.pendingPushIds();
                    if (!ids.empty()) {
                        for (std::size_t j = 0; j < pushes.size(); ++j)
                            children.push_back(
                                PendingTask<T>{pushes[j], ids[j], 0});
                    } else {
                        for (std::size_t j = 0; j < pushes.size(); ++j)
                            children.push_back(
                                PendingTask<T>{pushes[j], r->id, j});
                    }
                    report.traceDigest =
                        fnv1aMix(report.traceDigest, r->id);
                    ++committed;
                    ++stats.committed;
                } else {
                    failed.push_back(r);
                    ++stats.aborted;
                }
                for (Lockable* l : r->nbhd)
                    l->releaseIfOwner(r);
                if (!ok) {
                    r->nbhd.clear();
                    r->notSelected.store(false, std::memory_order_relaxed);
                }
            }
#if defined(DETGALOIS_DETSAN)
            analysis::endTask();
#endif
            report.traceDigest = fnv1aMix(report.traceDigest, committed);

            // Merge: failed tasks of this round, then the untaken carry
            // tail (non-empty only when cur held no queue tasks, so the
            // concatenation stays id-sorted — same as the executor).
            failed.insert(failed.end(), carry.begin() + carry_pos,
                          carry.end());
            carry = std::move(failed);
            carry_pos = 0;

            ++report.rounds;
            report.roundTrace.push_back(
                RoundSample{window.size(), cur.size(), committed});
            if (o.roundHook)
                o.roundHook(window.size(), cur.size(), committed);
            window.update(cur.size(), committed);

            if (committed != 0) {
                zero_commit_rounds = 0;
            } else if (o.watchdogRounds != 0 &&
                       ++zero_commit_rounds >= o.watchdogRounds) {
                throw LivelockError(
                    "DetRef progress watchdog: " +
                    std::to_string(zero_commit_rounds) +
                    " consecutive rounds committed 0 tasks (round " +
                    std::to_string(report.rounds) +
                    "); the operator is likely not cautious");
            }
        }
    }

    report.accumulate(stats);
    timer.stop();
    report.seconds = timer.seconds();
    return report;
}

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_EXECUTOR_DET_REF_H
