/**
 * @file
 * Control-flow signals used by the executors.
 *
 * Tasks in the Galois model are *cautious*: they acquire every abstract
 * location in their neighborhood before the first write (the failsafe
 * point). A conflict can therefore only be detected before any global
 * state has been modified, so "rollback" is simply unwinding the operator
 * — which we implement with exceptions that the executors catch.
 */

#ifndef DETGALOIS_RUNTIME_CONFLICT_H
#define DETGALOIS_RUNTIME_CONFLICT_H

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/lockable.h"

namespace galois::runtime {

/**
 * Thrown by UserContext::acquire() when a task loses an abstract location.
 *
 * Deliberately not derived from std::exception: user operators must not
 * accidentally swallow it with a catch-all for std::exception.
 */
struct ConflictSignal
{};

// ----------------------------------------------------------------------
// Batched mark claims (serial fold of the collected acquire sets).
//
// Under the batched DIG protocol the inspect phase does not touch mark
// words at all: each task merely appends the Lockables it acquires to a
// per-thread collection lane. Between inspect and select a *serial* fold
// — run by the last thread into the mid-round barrier, while every peer
// is parked — replays the collected claims in ascending task-id order
// and resolves conflicts with plain stores. The fold computes markMin —
// a min over a totally ordered id set, so it is order-insensitive:
// replaying the claims in any fixed order yields the same final marks
// and the same loser-flag set as the CAS-racing eager protocol, hence
// an identical selection and trace digest — at zero atomic
// read-modify-writes.
//
// Mark lifecycle per round: the fold installs every mark and records,
// per flagged task, which of its span entries installed one
// (heldClaims); the
// select phase reads the marks (Mode::DetCheck), and each thread clears
// the marks its own slice's records hold (Lockable::releaseIfHeldBy) —
// a committed task's right after its commit, a deferred task's just
// before its retry reset. After the fold every contested location has
// exactly one owner record, living in exactly one thread's slice, so
// each mark word has a single releasing writer. Releasing while other
// tasks still run their checks is safe: a selected task won every
// location it inspected, so no other record releases those, and any
// other mark it reads is not its own whether released or not. The fold
// keeps no release list and performs no allocation, so it cannot fail
// part-way.
//
// Giving every contested location to the *earliest* id is load-bearing
// for result determinism: together with the id-prefix round schedule it
// makes each round's committed set exactly the tasks with no pending
// earlier conflictor, so the final state equals the serial id-order
// execution no matter how rounds partition the work (the window/prefix
// policy changes only the schedule, never the output — what lets
// Exec::Det, Exec::DetRef and Exec::DetRes agree on every final state).
// ----------------------------------------------------------------------

/** Outcome of folding one claim (claimMarkFold). */
enum class Claim
{
    Installed, //!< the claim made its task the location's owner
    Duplicate, //!< the task already owned the location
    Lost       //!< an earlier id owns the location; the task is flagged
};

/**
 * Fold one collected claim of location l by task `me` into the marks.
 *
 * Must be called from a single-writer serial section, with tasks
 * processed in ascending id order (so the first claimant of a location
 * keeps it and later claimants flag themselves; the symmetric displace
 * branch keeps the primitive order-robust). Loads and plain stores only.
 */
inline Claim
claimMarkFold(Lockable& l, DetRecordBase* me)
{
    MarkOwner* cur = l.owner(std::memory_order_relaxed);
    if (cur == nullptr) {
        l.forceOwner(me);
        return Claim::Installed;
    }
    if (cur->id == me->id)
        return Claim::Duplicate;
    auto* other = static_cast<DetRecordBase*>(cur);
    if (other->id > me->id) {
        // We displace a later-id owner: flag it so it skips its commit
        // (the Section 3.3 flag protocol, now applied serially), and
        // have its release walk every claim under the owner check.
        other->notSelected.store(true, std::memory_order_relaxed);
        other->heldClaims = ~std::uint32_t(0);
        l.forceOwner(me);
        return Claim::Installed;
    }
    me->notSelected.store(true, std::memory_order_relaxed);
    return Claim::Lost;
}

/** Span entries a flagged record's heldClaims mask covers; later
 *  entries are released by walking them. */
inline constexpr std::uint32_t kHeldClaimBits = 32;
static_assert(kHeldClaimBits == 8 * sizeof(DetRecordBase::heldClaims));

/**
 * Fold the claims of one thread's slice [begin, end) of `slots` — each
 * record's acquire span in `lane`, the lane that thread collected
 * during inspect — in slot (= id) order. A record that lost a claim
 * (and was flagged, so its line is already written) also gets the
 * heldClaims mask of its first kHeldClaimBits entries that installed
 * it; an unflagged record holds every location it claimed, so it needs
 * none. The serial fold calls this for every slice in thread order,
 * which is ascending id order overall.
 */
template <typename Store>
inline void
foldSliceClaims(Store& store, const std::vector<std::uint32_t>& slots,
                std::size_t begin, std::size_t end, Lockable* const* lane)
{
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t slot = slots[i];
        DetRecordBase* me = store.record(slot);
        const auto s = store.span(slot);
        std::uint32_t held = 0;
        bool lost = false;
        for (std::uint32_t k = 0; k < s.len; ++k) {
            // Branch-free bookkeeping: the outcome is data-dependent, and
            // a mispredict per claim would dominate the serial fold.
            const Claim c = claimMarkFold(*lane[s.off + k], me);
            held |= std::uint32_t((c == Claim::Installed) &
                                  (k < kHeldClaimBits))
                    << (k % kHeldClaimBits);
            lost |= c == Claim::Lost;
        }
        if (lost)
            me->heldClaims = held;
    }
}

/**
 * Release, from the select phase, every mark record `me` holds, walking
 * its acquire span [claims, claims + n) under the owner check: all of
 * it for an unflagged record; for a flagged one (a loser), only the
 * entries whose heldClaims bit is set plus those past the mask — so a
 * round of mostly losers (a low commit ratio) pays a mark access per
 * installed mark, not per collected claim. The owner check keeps a
 * loser's walk past the mask from clearing a winner's mark. Called by
 * the thread whose slice holds `me`, once `me` will read no mark again:
 * after its commit (a Mode::DetCheck task re-reads its marks) or before
 * its retry reset (clearForRetry wipes the span and the flag). No other
 * thread stores to these words (see the mark lifecycle above); the
 * barrier that ends the phase publishes the stores to the next round's
 * fold.
 */
inline void
releaseHeldMarks(DetRecordBase* me, Lockable* const* claims, std::uint32_t n)
{
    std::uint32_t k = 0;
    if (me->notSelected.load(std::memory_order_relaxed)) {
        for (std::uint32_t held = me->heldClaims; held != 0; held &= held - 1)
            claims[std::countr_zero(held)]->releaseIfHeldBy(me);
        me->heldClaims = 0;
        k = kHeldClaimBits;
    }
    for (; k < n; ++k)
        claims[k]->releaseIfHeldBy(me);
}

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_CONFLICT_H
