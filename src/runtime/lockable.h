/**
 * @file
 * Abstract-location marks (Section 2 of the paper).
 *
 * The Galois model synchronizes on *abstract* locations — graph nodes,
 * triangles, mesh elements — rather than concrete memory words. Each
 * abstract location embeds a Lockable, whose single mark word plays the
 * role of Mark(l) in Figures 1b and 3 of the paper:
 *
 *  - Non-deterministic scheduling (Fig. 1b): the mark holds the owner of
 *    the location for the duration of one task execution, acquired with a
 *    compare-and-set of 0 -> id and released back to 0 on commit or abort.
 *
 *  - Deterministic DIG scheduling (Fig. 3): during the inspect phase the
 *    mark accumulates the *smallest* task id that touched the location
 *    (markMin — Fig. 3's writeMarks specialized to id-order priority);
 *    the select phase commits exactly the tasks whose marks all still
 *    carry their own id. Because min over a totally ordered id set is
 *    order-insensitive, the final marks — and hence the selected
 *    independent set — are deterministic. Giving every conflict to the
 *    *earlier* id is what makes the committed state equivalent to the
 *    serial id-order execution regardless of how rounds partition the
 *    work (see executor_det.h) — the same priority direction PBBS
 *    reservations encode by handing earlier items larger priorities
 *    over markMax (src/pbbs/reservations.h). During the select phase
 *    each thread clears the marks its own slice's records hold
 *    (releaseIfHeldBy), so the next round starts from empty marks.
 *
 * We store a pointer to an owner descriptor instead of a raw integer id so
 * that the deterministic executor can navigate from a mark to the losing
 * task's record (needed by the continuation optimization's flag protocol,
 * Section 3.3).
 */

#ifndef DETGALOIS_RUNTIME_LOCKABLE_H
#define DETGALOIS_RUNTIME_LOCKABLE_H

#include <atomic>
#include <cstdint>

#include "analysis/detmc_hooks.h"

namespace galois::runtime {

/**
 * Base class for owner descriptors stored in mark words.
 *
 * The deterministic executor's task records and the non-deterministic
 * executor's per-execution contexts both derive from this.
 */
struct MarkOwner
{
    /**
     * Totally ordered id (0 is reserved for "unowned" and is never given
     * to a task). Only meaningful for deterministic scheduling.
     */
    std::uint64_t id = 0;
};

/**
 * Non-template part of a deterministic task record — the owner descriptor
 * the DIG mark protocol stores in contested mark words.
 *
 * Lives next to Lockable (rather than in the executor) because the mark
 * protocol itself navigates from a mark to the losing task's record: when
 * task t displaces a smaller-id task u on some location, t (eager
 * protocol) or the serial fold (batched protocol) flips u's notSelected
 * flag so u skips its commit (Section 3.3 flag protocol).
 */
struct DetRecordBase : MarkOwner
{
    /** Set when some other task stole one of our neighborhood marks. */
    std::atomic<bool> notSelected{false};
    /**
     * Batched protocol, flagged records only: bit k is set when the
     * serial fold installed this record as the owner of entry k of its
     * acquire span (k < 32). The owning thread's select-phase release
     * visits those entries (and any past the mask) and clears the mask
     * (runtime/conflict.h). Written only by the fold and by the owning
     * thread, which the round's barriers order.
     */
    std::uint32_t heldClaims = 0;
};

// heldClaims lives in what was the record's padding: the task store's
// hot lane stays 16 bytes per task (runtime/task_store.h).
static_assert(sizeof(DetRecordBase) == 16,
              "DetRecordBase must stay 16 bytes");

/**
 * Per-abstract-location synchronization word.
 *
 * Embed one Lockable in every abstract location (graph node, triangle,
 * ...) that tasks may conflict on.
 */
class Lockable
{
  public:
    Lockable() = default;

    // Abstract locations live inside containers that may copy/move them
    // around *outside* of parallel regions; the mark itself is execution
    // state and is never meaningful across such operations, so copies
    // start unowned.
    Lockable(const Lockable&) noexcept {}
    Lockable& operator=(const Lockable&) noexcept { return *this; }

    /** Current owner (nullptr when free). */
    MarkOwner*
    owner(std::memory_order order = std::memory_order_acquire) const
    {
        DETMC_READ(&mark_, "lockable.mark.read");
        return mark_.load(order);
    }

    /**
     * Try to acquire for exclusive (non-deterministic) ownership.
     *
     * @return true if the mark was free and is now owned by o, or was
     *         already owned by o.
     */
    bool
    tryAcquire(MarkOwner* o)
    {
        DETMC_RMW(&mark_, "lockable.mark.cas");
        MarkOwner* expected = nullptr;
        if (mark_.compare_exchange_strong(expected, o,
                                          std::memory_order_acq_rel)) {
            return true;
        }
        return expected == o;
    }

    /**
     * writeMarkMax: install o if its id exceeds the current owner's id.
     * Used where priorities are encoded so that larger means earlier
     * (the PBBS reservation engine); the deterministic runtime itself
     * resolves conflicts with markMin below.
     *
     * @param[out] displaced set to the owner whose mark was overwritten
     *             (nullptr if the location was free or o lost).
     * @return true if o holds the mark after the call.
     */
    bool
    markMax(MarkOwner* o, MarkOwner*& displaced)
    {
        displaced = nullptr;
        DETMC_READ(&mark_, "lockable.mark.read");
        MarkOwner* cur = mark_.load(std::memory_order_acquire);
        for (;;) {
            if (cur == o)
                return true;
            if (cur != nullptr && cur->id >= o->id)
                return false; // a larger id already owns the location
            DETMC_RMW(&mark_, "lockable.mark.cas");
            if (mark_.compare_exchange_weak(cur, o,
                                            std::memory_order_acq_rel)) {
                displaced = cur;
                return true;
            }
            // cur reloaded by compare_exchange_weak; retry.
        }
    }

    /**
     * writeMarkMin — the id-order mark of the deterministic executors:
     * install o if its id is *smaller* than the current owner's id, so
     * every location ends up owned by the earliest task that touched it.
     *
     * @param[out] displaced set to the owner whose mark was overwritten
     *             (nullptr if the location was free or o lost).
     * @return true if o holds the mark after the call.
     */
    bool
    markMin(MarkOwner* o, MarkOwner*& displaced)
    {
        displaced = nullptr;
        if (DETMC_BUG("lockable.markmin-tear")) {
            // Seeded protocol bug (model-checker builds only): the CAS
            // loop degraded to a non-atomic check-then-store. Two
            // concurrent claimants can both read "free" and both
            // install themselves; the later store wins regardless of
            // id, so detmc model (b) finds a schedule whose final
            // owner is not the minimum id.
            DETMC_READ(&mark_, "lockable.mark.read");
            MarkOwner* cur = mark_.load(std::memory_order_acquire);
            if (cur == o)
                return true;
            if (cur != nullptr && cur->id <= o->id)
                return false;
            DETMC_WRITE(&mark_, "lockable.mark.store");
            mark_.store(o, std::memory_order_release);
            displaced = cur;
            return true;
        }
        DETMC_READ(&mark_, "lockable.mark.read");
        MarkOwner* cur = mark_.load(std::memory_order_acquire);
        for (;;) {
            if (cur == o)
                return true;
            if (cur != nullptr && cur->id <= o->id)
                return false; // an earlier id already owns the location
            DETMC_RMW(&mark_, "lockable.mark.cas");
            if (mark_.compare_exchange_weak(cur, o,
                                            std::memory_order_acq_rel)) {
                displaced = cur;
                return true;
            }
            // cur reloaded by compare_exchange_weak; retry.
        }
    }

    /**
     * Release the mark if (and only if) it is held by o.
     *
     * Deterministic rounds clear marks this way so that a task that lost a
     * location cannot clobber the winner's mark before the winner's
     * select-phase check (see DESIGN.md).
     */
    void
    releaseIfOwner(MarkOwner* o)
    {
        DETMC_RMW(&mark_, "lockable.mark.release");
        MarkOwner* expected = o;
        mark_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel);
    }

    /**
     * Owner release without a read-modify-write: a relaxed load, then a
     * relaxed store of nullptr when the mark is held by o.
     *
     * Only legal when o's thread is the sole writer of every mark o can
     * hold — the batched DIG protocol's select phase, where the serial
     * fold left each contested location with exactly one owner record
     * and that record lives in exactly one thread's slice. The owner
     * check is load-bearing: a loser clearing a location unconditionally
     * could empty a winner's mark before the winner's Mode::DetCheck
     * re-check reads it, making that check depend on timing.
     */
    void
    releaseIfHeldBy(const MarkOwner* o)
    {
        if (DETMC_BUG("lockable.release-unowned")) {
            // Seeded protocol bug (model-checker builds only): the owner
            // check is dropped, so a loser's release races the winner's
            // select-phase check; detmc model mark-release finds it.
            DETMC_WRITE(&mark_, "lockable.mark.release-held");
            mark_.store(nullptr, std::memory_order_relaxed);
            return;
        }
        DETMC_READ(&mark_, "lockable.mark.read");
        if (mark_.load(std::memory_order_relaxed) != o)
            return;
        DETMC_WRITE(&mark_, "lockable.mark.release-held");
        mark_.store(nullptr, std::memory_order_relaxed);
    }

    /** Unconditional reset to unowned (single-threaded contexts only). */
    void
    forceRelease()
    {
        DETMC_WRITE(&mark_, "lockable.mark.force-release");
        mark_.store(nullptr, std::memory_order_relaxed);
    }

    /**
     * Unconditional owner install with a plain relaxed store.
     *
     * Only legal in single-writer phases: the batched mark protocol's
     * serial fold runs inside a barrier completion section, so exactly
     * one thread writes marks and no thread reads them concurrently —
     * publication to the other threads rides the barrier's sense-word
     * release (as does publication of the select phase's
     * releaseIfHeldBy stores back to the next fold). Never call this
     * from a parallel phase.
     */
    void
    forceOwner(MarkOwner* o)
    {
        DETMC_WRITE(&mark_, "lockable.mark.force-owner");
        mark_.store(o, std::memory_order_relaxed);
    }

  private:
    std::atomic<MarkOwner*> mark_{nullptr};
};

// The determinism sanitizer (analysis/detsan.h) keeps its shadow state
// outside the mark word — checked accessors are free-standing macros, not
// members — so instrumented (DETGALOIS_DETSAN) and plain builds must stay
// layout- and ABI-identical. A drift here would let the checking build
// diverge behaviorally from the build it is supposed to vouch for.
static_assert(sizeof(Lockable) == sizeof(std::atomic<MarkOwner*>),
              "Lockable must stay exactly one mark word");
static_assert(alignof(Lockable) == alignof(std::atomic<MarkOwner*>),
              "Lockable alignment must not change");

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_LOCKABLE_H
