/**
 * @file
 * Per-task execution context — the operator-facing half of the runtime.
 *
 * A Galois operator has the signature void(T& item, UserContext<T>& ctx).
 * Through the context the operator:
 *
 *  - declares its neighborhood with acquire() (abstract-location locking,
 *    Section 2.1);
 *  - announces its failsafe point with `if (ctx.tryCautiousPoint())
 *    return;` (the boundary between the read prefix and the write
 *    suffix of a cautious task);
 *  - creates new tasks with push() (the S(t) of Figure 1a);
 *  - optionally saves inspect-phase state for the continuation
 *    optimization with saveState()/savedState() (Section 3.3).
 *
 * The same operator code runs unchanged under the serial executor, the
 * non-deterministic speculative executor and the deterministic DIG
 * executor; the context's mode determines what each call does. This is
 * the mechanism behind the paper's *on-demand determinism*: the scheduler
 * is chosen by a runtime parameter, not by rewriting the program.
 */

#ifndef DETGALOIS_RUNTIME_CONTEXT_H
#define DETGALOIS_RUNTIME_CONTEXT_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "analysis/detsan.h"
#include "model/cache_model.h"
#include "runtime/conflict.h"
#include "runtime/lockable.h"
#include "runtime/stats.h"
#include "support/arena.h"

namespace galois::runtime {

/**
 * Operator-facing context. One instance per executing thread; the
 * executor re-points it at the current task before each execution.
 */
template <typename T>
class UserContext
{
  public:
    /** What the current execution of the operator is for. */
    enum class Mode
    {
        Serial,     //!< reference sequential execution
        NonDet,     //!< speculative execution with CAS-acquired marks
        /** DIG inspect, batched protocol: collect the acquire set into a
         *  per-thread lane (no mark traffic — the serial fold between
         *  inspect and select resolves conflicts), stop at failsafe. */
        DetInspect,
        /** DIG inspect, eager protocol: one markMin CAS per acquire,
         *  flag displaced losers immediately. Kept as an independent
         *  protocol for the serial reference oracle (Exec::DetRef), so
         *  the differential tests compare two different mark protocols. */
        DetInspectEager,
        DetCheck,   //!< DIG select phase, baseline: re-execute, verify marks
        DetCommit,  //!< DIG select phase: selection already decided, run
        /** CoreDet-style execution: like NonDet, but every mark
         *  acquisition is funneled through a bound serializer (the DMP
         *  scheduler's serial mode), so lock outcomes — and with them
         *  the whole speculative schedule — are deterministic for a
         *  fixed (threads, quantum, rotation). */
        CoreDet
    };

    /** Serialized mark acquisition for Mode::CoreDet: the executor
     *  binds the scheduler (as void*) plus a trampoline that runs
     *  tryAcquire inside the scheduler's serial mode. */
    using SerialAcquireFn = bool (*)(void* sched, Lockable& l,
                                     MarkOwner* owner);

    UserContext() = default;

    UserContext(const UserContext&) = delete;
    UserContext& operator=(const UserContext&) = delete;

    // ------------------------------------------------------------------
    // Operator API
    // ------------------------------------------------------------------

    /**
     * Add abstract location l to this task's neighborhood.
     *
     * Must be called before the task's first write to l's underlying data
     * (cautious-task discipline). May throw ConflictSignal; operators must
     * let it propagate.
     */
    void
    acquire(Lockable& l)
    {
#if defined(DETGALOIS_DETSAN)
        // Cautiousness verifier: an acquire after the task's first write
        // (or after tryCautiousPoint()) is recorded — the non-aborting DIG
        // executor is only sound for cautious operators.
        analysis::noteAcquire(&l);
#endif
        if (cache_) {
            ++stats_->cacheAccesses;
            if (cache_->access(&l))
                ++stats_->cacheMisses;
        }
        switch (mode_) {
          case Mode::Serial:
            return;
          case Mode::NonDet:
            acquireNonDet(l);
            return;
          case Mode::DetInspect:
            // Batched protocol: just append to the collection lane. No
            // atomic traffic, no dedup — the serial fold resolves both
            // duplicates and conflicts in id order (runtime/conflict.h).
            collect_->push_back(&l);
            return;
          case Mode::DetInspectEager:
            acquireInspect(l);
            return;
          case Mode::DetCheck:
            if (l.owner() != owner_)
                throw ConflictSignal{};
            return;
          case Mode::DetCommit:
            // Selection was already decided by the notSelected flag
            // before the operator ran; nothing to check per acquire.
            return;
          case Mode::CoreDet:
            acquireCoreDet(l);
            return;
        }
    }

    /**
     * Failsafe-point annotation: all acquires are done, writes may
     * begin. Returns true when the operator should stop here (DIG
     * inspect — Section 3.2: "when the task reaches its failsafe point
     * ... it immediately returns"), false when it should continue into
     * its write suffix. Operators use it as
     *
     *   if (ctx.tryCautiousPoint()) return;
     *
     * The paper's system returns from the task at its first global
     * write; an explicit annotation replaces that compiler transform,
     * and a return rather than an exception keeps the unwind machinery
     * off the inspect path.
     */
    [[nodiscard]] bool
    tryCautiousPoint()
    {
#if defined(DETGALOIS_DETSAN)
        analysis::noteCautiousPoint();
#endif
        return mode_ == Mode::DetInspect || mode_ == Mode::DetInspectEager;
    }

    /** Create a new task (must be called after the failsafe point). */
    void
    push(const T& item)
    {
        if (inspecting())
            return; // inspect executions are discarded at the failsafe
        ++stats_->pushed;
        pushes_.push_back(item);
    }

    /**
     * Create a new task with a pre-assigned deterministic id
     * (Section 3.3, third optimization). Ids must be unique within a
     * generation; only meaningful under deterministic scheduling, where it
     * replaces the (parent, k) sort. Other executors ignore the id.
     */
    void
    push(const T& item, std::uint64_t preassigned_id)
    {
        if (inspecting())
            return;
        ++stats_->pushed;
        pushes_.push_back(item);
        pushIds_.push_back(preassigned_id);
    }

    /**
     * Allocate per-task state (continuation optimization, Section 3.3).
     *
     * Under DIG inspect the object is stored in the task record and
     * survives to the commit phase of the same round, where savedState()
     * recalls it — this is the paper's library mechanism for suspending a
     * task at its failsafe point and resuming it at commit without
     * re-executing the prefix. Under every other mode the object lives in
     * per-thread scratch that is reclaimed when the task ends, so operator
     * code is identical across schedulers.
     */
    template <typename S, typename... Args>
    S&
    saveState(Args&&... args)
    {
        // With a bound arena (the deterministic executor binds its
        // per-thread round arena) the state is bump-allocated and only
        // its destructor is registered — the memory is reclaimed
        // wholesale when the executor resets the arena at the round
        // boundary. Without one (serial/speculative execution) the
        // state lives on the heap as before.
        S* s;
        void (*deleter)(void*);
        if (arena_ != nullptr) {
            s = arena_->createUnmanaged<S>(std::forward<Args>(args)...);
            deleter = [](void* p) { static_cast<S*>(p)->~S(); };
        } else {
            s = new S(std::forward<Args>(args)...);
            deleter = [](void* p) { delete static_cast<S*>(p); };
        }
        if (inspecting() && localSlot_ && !*localSlot_) {
            *localSlot_ = s;
            *localDeleter_ = deleter;
        } else {
            clearScratch();
            scratch_ = s;
            scratchDel_ = deleter;
        }
        return *s;
    }

    /**
     * Retrieve state saved during this round's inspect phase. Non-null
     * only in the DIG commit phase with the continuation optimization;
     * in every other situation the operator must recompute its prefix.
     */
    template <typename S>
    S*
    savedState()
    {
        if (mode_ != Mode::DetCommit || !localSlot_)
            return nullptr;
        return static_cast<S*>(*localSlot_);
    }

    /** Current execution mode (exposed for tests and advanced operators). */
    Mode mode() const { return mode_; }

    /** Record an application-level atomic update (Fig. 5 accounting). */
    void countAtomic(std::uint64_t n = 1) { stats_->atomicOps += n; }

    // ------------------------------------------------------------------
    // Executor API (not for operators)
    // ------------------------------------------------------------------

    /** Reset per-task state before running an operator. */
    void
    beginTask(Mode mode, MarkOwner* owner, std::vector<Lockable*>* nbhd,
              void** local_slot = nullptr,
              void (**local_deleter)(void*) = nullptr)
    {
        mode_ = mode;
        owner_ = owner;
        nbhd_ = nbhd;
        collect_ = nullptr;
        localSlot_ = local_slot;
        localDeleter_ = local_deleter;
        pushes_.clear();
        pushIds_.clear();
        clearScratch();
#if defined(DETGALOIS_DETSAN)
        analysis::beginTask(owner_ != nullptr ? owner_->id : 0,
                            detsanPhase(mode));
        if (mode == Mode::DetCommit && nbhd_ != nullptr) {
            // Continuation resume: the acquires happened during this
            // round's inspect execution; the record's neighborhood IS the
            // declared set, so seed it instead of re-deriving it.
            for (Lockable* l : *nbhd_)
                analysis::seedAcquire(l);
        }
#endif
    }

    /**
     * Start a batched-protocol inspect execution: acquires append to the
     * given per-thread collection lane (the executor records the span
     * this task occupies in it).
     */
    void
    beginInspect(MarkOwner* owner, std::vector<Lockable*>* collect_lane,
                 void** local_slot, void (**local_deleter)(void*))
    {
        mode_ = Mode::DetInspect;
        owner_ = owner;
        nbhd_ = nullptr;
        collect_ = collect_lane;
        localSlot_ = local_slot;
        localDeleter_ = local_deleter;
        pushes_.clear();
        pushIds_.clear();
        clearScratch();
#if defined(DETGALOIS_DETSAN)
        analysis::beginTask(owner_ != nullptr ? owner_->id : 0,
                            detsanPhase(Mode::DetInspect));
#endif
    }

    /**
     * Start a commit execution of a selected task whose acquire set was
     * collected during this round's inspect (batched protocol): the
     * [nbhd, nbhd + n) span is the declared neighborhood, seeded into
     * the sanitizer instead of re-derived.
     */
    void
    beginResume(MarkOwner* owner, Lockable* const* nbhd, std::size_t n,
                void** local_slot, void (**local_deleter)(void*))
    {
        mode_ = Mode::DetCommit;
        owner_ = owner;
        nbhd_ = nullptr;
        collect_ = nullptr;
        localSlot_ = local_slot;
        localDeleter_ = local_deleter;
        pushes_.clear();
        pushIds_.clear();
        clearScratch();
#if defined(DETGALOIS_DETSAN)
        analysis::beginTask(owner_ != nullptr ? owner_->id : 0,
                            detsanPhase(Mode::DetCommit));
        for (std::size_t i = 0; i < n; ++i)
            analysis::seedAcquire(nbhd[i]);
#else
        (void)nbhd;
        (void)n;
#endif
    }

    /**
     * Destroy any scratch state still held from the last task. The
     * executor must call this before resetting a bound arena: the
     * scratch object lives in that arena, and dropping it afterwards
     * would run a destructor on rewound memory.
     */
    void endTaskScope() { clearScratch(); }

    ~UserContext() { clearScratch(); }

    void bindStats(ThreadStats* stats) { stats_ = stats; }
    void bindCache(model::CacheModel* cache) { cache_ = cache; }
    /** Bind the Mode::CoreDet acquisition serializer (see above). */
    void
    bindSerializer(void* sched, SerialAcquireFn fn)
    {
        serialSched_ = sched;
        serialAcquire_ = fn;
    }
    /** Route saveState() allocations to an arena (nullptr: heap). */
    void bindArena(support::Arena* arena) { arena_ = arena; }

    ThreadStats& stats() { return *stats_; }

    /** Tasks pushed by the last operator execution. */
    std::vector<T>& pendingPushes() { return pushes_; }
    /** Pre-assigned ids parallel to pendingPushes (empty if none given). */
    std::vector<std::uint64_t>& pendingPushIds() { return pushIds_; }

  private:
#if defined(DETGALOIS_DETSAN)
    /** Human-readable executor phase for sanitizer reports. */
    static constexpr const char*
    detsanPhase(Mode m)
    {
        switch (m) {
          case Mode::Serial:
            return "serial";
          case Mode::NonDet:
            return "nondet";
          case Mode::DetInspect:
          case Mode::DetInspectEager:
            return "inspect";
          case Mode::DetCheck:
            return "check";
          case Mode::DetCommit:
            return "commit";
          case Mode::CoreDet:
            return "coredet";
        }
        return "?";
    }
#endif

    void
    acquireNonDet(Lockable& l)
    {
        // Fast path: we already own it (repeated acquire of the same
        // location is common, e.g. a node reached via two edges).
        if (l.owner(std::memory_order_relaxed) == owner_)
            return;
        ++stats_->atomicOps;
        if (!l.tryAcquire(owner_))
            throw ConflictSignal{};
        nbhd_->push_back(&l);
    }

    void
    acquireCoreDet(Lockable& l)
    {
        // Fast path as in acquireNonDet: owner_ can only have been
        // installed by our own (serialized) acquire, and owner() is an
        // atomic load, so reading it in parallel mode is race-free.
        if (l.owner(std::memory_order_relaxed) == owner_)
            return;
        ++stats_->atomicOps;
        assert(serialAcquire_ != nullptr &&
               "Mode::CoreDet requires a bound serializer");
        if (!serialAcquire_(serialSched_, l, owner_))
            throw ConflictSignal{};
        nbhd_->push_back(&l);
    }

    void
    acquireInspect(Lockable& l)
    {
        if (l.owner(std::memory_order_relaxed) == owner_)
            return;
        ++stats_->atomicOps;
        MarkOwner* displaced = nullptr;
        if (l.markMin(owner_, displaced)) {
            nbhd_->push_back(&l);
            if (displaced != nullptr) {
                // We stole the mark from a later-id task: flag it so it
                // skips its commit (continuation-optimization protocol;
                // harmless under baseline scheduling, where the mark check
                // catches it anyway).
                static_cast<DetRecordBase*>(displaced)
                    ->notSelected.store(true, std::memory_order_release);
            }
        } else {
            // An earlier id holds the location: we cannot commit this
            // round. Unlike writeMarks (Fig. 1b), the id-order mark must
            // keep marking the remaining locations, so do NOT unwind here.
            static_cast<DetRecordBase*>(owner_)->notSelected.store(
                true, std::memory_order_release);
        }
    }

    void
    clearScratch()
    {
        if (scratch_) {
            scratchDel_(scratch_);
            scratch_ = nullptr;
        }
    }

    /** Either inspect mode (the read prefix of a cautious task). */
    bool
    inspecting() const
    {
        return mode_ == Mode::DetInspect || mode_ == Mode::DetInspectEager;
    }

    Mode mode_ = Mode::Serial;
    MarkOwner* owner_ = nullptr;
    void* scratch_ = nullptr;
    void (*scratchDel_)(void*) = nullptr;
    std::vector<Lockable*>* nbhd_ = nullptr;
    std::vector<Lockable*>* collect_ = nullptr; //!< batched-inspect lane
    void** localSlot_ = nullptr;
    void (**localDeleter_)(void*) = nullptr;
    ThreadStats* stats_ = nullptr;
    model::CacheModel* cache_ = nullptr;
    void* serialSched_ = nullptr; //!< Mode::CoreDet serializer state
    SerialAcquireFn serialAcquire_ = nullptr;
    support::Arena* arena_ = nullptr;
    std::vector<T> pushes_;
    std::vector<std::uint64_t> pushIds_;
};

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_CONTEXT_H
