/**
 * @file
 * Sense-reversing centralized barrier.
 *
 * The deterministic DIG scheduler is bulk-synchronous: every round of
 * its protocol (runtime/round_engine.h) has two rendezvous — one closing
 * inspect, whose completion section runs the mark fold, and one closing
 * select-and-execute, whose completion section runs merge and assembles
 * the next window. The barrier therefore sits directly on the critical
 * path of deterministic execution and is implemented as a
 * spin-then-yield sense-reversing barrier: cheap when threads arrive
 * together (the common case for balanced rounds) and friendly to
 * oversubscribed runs (it yields after a bounded spin).
 *
 * The protocol lives in one body, the completion-bearing wait(); the
 * plain wait() (CoreDet's quantum rendezvous) is that body with an empty
 * completion, so the detmc round-fused model certifies both.
 */

#ifndef DETGALOIS_SUPPORT_BARRIER_H
#define DETGALOIS_SUPPORT_BARRIER_H

#include <atomic>
#include <cstdint>

#include "analysis/detmc_hooks.h"
#include "support/cacheline.h"
#include "support/failpoint.h"

namespace galois::support {

/**
 * Reusable barrier for a fixed number of participants.
 *
 * reinit() may only be called while no thread is inside wait().
 */
class Barrier
{
  public:
    explicit Barrier(unsigned participants = 1) { reinit(participants); }

    Barrier(const Barrier&) = delete;
    Barrier& operator=(const Barrier&) = delete;

    /** Reset the barrier for a (possibly different) participant count. */
    void
    reinit(unsigned participants)
    {
        // Construction-time site only: wait() is on the critical path and
        // must never throw (a throwing waiter would strand its peers).
        FAILPOINT("barrier.reinit", participants);
        participants_ = participants;
        remaining_.store(participants, std::memory_order_relaxed);
        sense_.store(0, std::memory_order_relaxed);
    }

    /** Number of participating threads. */
    unsigned participants() const { return participants_; }

    /** Block until all participants arrive (an empty completion). */
    void
    wait()
    {
        wait([] {});
    }

    /**
     * Barrier with a serial completion section: the last-arriving thread
     * runs `completion()` while every peer is still parked inside the
     * barrier, then releases them. The completion therefore executes with
     * exactly the quiescence guarantee a *pair* of plain barriers around
     * a single-threaded section provides — every participant has finished
     * the phase before it, and none starts the phase after it until it
     * returns — at the cost of one rendezvous instead of two. This is
     * what the fused deterministic round protocol hangs its serial
     * bookkeeping (mark folding, merge, next-round assembly) off.
     *
     * `completion` must not throw: a throwing completion would strand
     * every parked peer. Callers contain exceptions internally (see
     * RoundEngine's serial-section fault discipline).
     *
     * Memory ordering: writes made inside `completion` happen-before the
     * release of the sense word, so peers observe them after wait()
     * returns without any extra synchronization.
     *
     * Sense reversal without a thread-local sense: each arrival reads
     * the global sense before decrementing the count, which is safe for
     * a centralized barrier — the sense cannot flip until this thread's
     * own decrement has landed.
     */
    template <typename Fn>
    void
    wait(Fn&& completion)
    {
        DETMC_READ(&sense_, "barrier.sense.read");
        const std::uint32_t my_sense =
            sense_.load(std::memory_order_acquire);
        DETMC_RMW(&remaining_, "barrier.remaining.dec");
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            completion();
            if (DETMC_BUG("barrier.early-sense")) {
                // Seeded protocol bug (model-checker builds only): the
                // completion section publishes the sense word *before*
                // resetting the arrival count. A released peer that
                // re-enters the barrier decrements the stale count and
                // parks forever — detmc model (a) finds the deadlock
                // schedule; real code keeps the reset-then-flip order.
                DETMC_WRITE(&sense_, "barrier.sense.flip");
                sense_.store(my_sense + 1, std::memory_order_release);
                DETMC_WRITE(&remaining_, "barrier.remaining.reset");
                remaining_.store(participants_,
                                 std::memory_order_relaxed);
                return;
            }
            DETMC_WRITE(&remaining_, "barrier.remaining.reset");
            remaining_.store(participants_, std::memory_order_relaxed);
            DETMC_WRITE(&sense_, "barrier.sense.flip");
            sense_.store(my_sense + 1, std::memory_order_release);
            return;
        }
        spinUntilFlipped(my_sense);
    }

  private:
    /** Park until the sense word leaves `my_sense` (spin, then yield). */
    void spinUntilFlipped(std::uint32_t my_sense) const;

    unsigned participants_{1};
    alignas(cacheLineSize) std::atomic<unsigned> remaining_{1};
    alignas(cacheLineSize) std::atomic<std::uint32_t> sense_{0};
};

} // namespace galois::support

#endif // DETGALOIS_SUPPORT_BARRIER_H
