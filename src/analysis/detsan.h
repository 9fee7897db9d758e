/**
 * @file
 * Determinism sanitizer — discipline checking for Galois operators.
 *
 * The DIG scheduler's determinism guarantee (and the speculative
 * executor's serializability guarantee) rest on two properties of the
 * operator that nothing in the runtime enforces:
 *
 *  1. **Marked access**: every shared abstract location is acquire()d by
 *     the task before its data is touched. An unmarked access is a data
 *     race that silently reintroduces nondeterminism.
 *  2. **Cautiousness**: all acquires happen before the task's first write
 *     (equivalently, before its tryCautiousPoint()). The non-aborting
 *     deterministic executor and the undo-log-free speculative abort path
 *     are only sound for cautious operators.
 *
 * This sanitizer verifies both at runtime. It is an opt-in *checking
 * mode*: instrumentation call sites are compiled in only when the
 * translation unit is built with -DDETGALOIS_DETSAN (the
 * `DETGALOIS_DETSAN` CMake option turns it on globally; the dedicated
 * `detsan_test` target turns it on for itself alone). Without the macro
 * every hook below expands to nothing and the build is bit-identical to
 * an uninstrumented one — Lockable's layout never changes either way
 * (static_assert'd in lockable.h).
 *
 * Model: the executing task's *declared neighborhood* — the set of
 * Lockables it acquire()d during the current execution — is shadowed in
 * thread-local state (a TaskScope). Checked accessors (the DETSAN_READ /
 * DETSAN_WRITE / DETSAN_ACCESS macros, wired through CsrGraph's node and
 * edge data accessors) validate membership on every access inside an
 * operator; accesses outside any operator are never checked. Shadowing
 * the declared set rather than the mark word itself makes the check
 * meaningful under every executor — including the serial oracle, which
 * takes no marks at all, and the DIG inspect phase, where a task may
 * legitimately have lost a mark it correctly declared.
 *
 * Cautiousness is a per-execution state machine: Acquire -> Write, where
 * the transition is the first DETSAN_WRITE or the tryCautiousPoint() call,
 * and any acquire() in the Write state is a violation.
 *
 * v2 — the environment audit layer. The discipline checks above protect
 * determinism from *races*; a program can pass both and still lose
 * portability to its *environment*: pointer-order iteration (ASLR),
 * clock reads, runtime hash seeds and environment variables all produce
 * values that differ across machines and runs. The audit models this as
 * value taint: code that derives a value from an environmental source
 * must route it through a taint wrapper (DETSAN_TAINT_ADDRESS / _CLOCK /
 * _HASH_SEED / _ENV — the static pass, scripts/detaudit.sh, bans the raw
 * sources outside audited sites, so the wrappers are the only sanctioned
 * way in), and every value flowing into schedule-affecting state — task
 * ordering keys, worklist keys, hashes, trace digests — passes a checked
 * *value channel* (DETSAN_VALUE). A tainted value reaching a channel is
 * an EnvLeak violation: the run's schedule now depends on where the
 * allocator or clock happened to land, which is exactly the class of bug
 * the perturbed-environment CI gate (scripts/env_perturb.sh) would later
 * catch the hard way. Taint is tracked by exact 64-bit value match in a
 * bounded registry — no compiler support needed, and transformations
 * that launder a tainted value (hash, shift) are instead caught by the
 * static rules banning the transformation sites.
 *
 * Violations are collected into a process-wide structured report.
 * Because the set of (task, round, phase) executions of a deterministic
 * run is itself deterministic, the sorted report — sites, task ids,
 * rounds, and per-site counts — is identical on every thread count; the
 * tests assert this on 1/2/4/8 threads.
 */

#ifndef DETGALOIS_ANALYSIS_DETSAN_H
#define DETGALOIS_ANALYSIS_DETSAN_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace galois::runtime {
class Lockable;
}

namespace galois::analysis {

/** Runtime knobs of the sanitizer (process-wide; see configure()). */
struct DetSanOptions
{
    /** Master switch: when false, instrumented builds record nothing. */
    bool enabled = true;
    /** Shadow-access checking (unmarked read/write/access). */
    bool checkAccess = true;
    /** Cautiousness checking (acquire after first write / failsafe). */
    bool checkCautious = true;
    /** Value-channel checking (environment-taint flowing into ordering,
     *  worklist keys, hashes or digests — ViolationKind::EnvLeak). */
    bool checkValues = true;
    /**
     * Throw a DetSanError at the violating access instead of collecting.
     * The executors treat it like any other task failure, so under
     * deterministic scheduling the error surfaces with the smallest
     * violating task id — identical on every thread count.
     */
    bool failFast = false;
    /**
     * Stop recording once this many raw violation events are held
     * (memory bound for hopelessly racy operators). A truncated report
     * is flagged and no longer guaranteed thread-count invariant.
     */
    std::size_t maxViolations = 1 << 16;
};

/** What went wrong at a checked site. */
enum class ViolationKind : std::uint8_t
{
    UnmarkedRead,       //!< read of a location the task never acquired
    UnmarkedWrite,      //!< write to a location the task never acquired
    UnmarkedAccess,     //!< mutable access (read-or-write accessor path)
    AcquireAfterWrite,  //!< acquire() after the task's first write
    AcquireAfterFailsafe, //!< acquire() after tryCautiousPoint()
    EnvLeak             //!< environment-derived value reached a checked channel
};

/** Environmental origin of a tainted value. */
enum class TaintSource : std::uint8_t
{
    Address,  //!< pointer identity / address bits (ASLR-dependent)
    Clock,    //!< wall- or steady-clock read
    HashSeed, //!< std::hash or other runtime-seeded hash output
    Env       //!< environment variable content
};

/** Stable name of a taint source ("address", "clock", ...). */
const char* taintSourceName(TaintSource s) noexcept;

/** Stable name of a violation kind. */
const char* kindName(ViolationKind k) noexcept;

/** One deduplicated discipline violation. */
struct Violation
{
    ViolationKind kind{};
    std::uint64_t taskId = 0;     //!< det task id (0: serial/nondet task)
    std::uint64_t generation = 0; //!< det generation (0 otherwise)
    std::uint64_t round = 0;      //!< det round (0 otherwise)
    const char* phase = "";       //!< executor phase name
    const char* file = "";        //!< site (for Acquire*: the first write)
    int line = 0;
    std::uint64_t count = 0;      //!< occurrences of this exact violation
    /** EnvLeak only: the checked value channel the taint reached
     *  (e.g. "idservice.parent-id"); "" for discipline violations. */
    const char* channel = "";
    /** EnvLeak only: name of the taint's environmental origin. */
    const char* source = "";

    /** "kind @ file:line (task 5, gen 1, round 3, commit) x2" */
    std::string toString() const;
};

/** Structured result of a checked run; what tests assert on. */
struct DetSanReport
{
    std::vector<Violation> violations; //!< sorted, deduplicated
    bool truncated = false; //!< hit DetSanOptions::maxViolations
    /** The taint registry hit its cap: later taints were dropped, so
     *  EnvLeak coverage (not the report's determinism) is incomplete. */
    bool taintOverflow = false;

    bool
    clean() const
    {
        return violations.empty() && !truncated && !taintOverflow;
    }
    std::string toString() const;
};

/** Thrown at the violating site when DetSanOptions::failFast is set. */
class DetSanError : public std::runtime_error
{
  public:
    explicit DetSanError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** Install new options (also clears the pending report). */
void configure(const DetSanOptions& opts);
/** Current options. */
DetSanOptions options();
/** Drop all recorded violations. */
void resetReport();
/**
 * Take the accumulated report: sorted by (taskId, generation, round,
 * kind, file, line), equal entries merged with their counts. Clears the
 * collector.
 */
DetSanReport takeReport();

// ----------------------------------------------------------------------
// Hooks — called by the runtime only from DETGALOIS_DETSAN-instrumented
// translation units (contexts, executors, checked accessors). All are
// safe to call with no active task (they do nothing).
// ----------------------------------------------------------------------

/** Enter a task execution on this thread (resets the previous scope). */
void beginTask(std::uint64_t task_id, const char* phase) noexcept;
/** Leave task scope on this thread (accesses stop being checked). */
void endTask() noexcept;
/** Set the deterministic (generation, round) labels for this thread. */
void setRound(std::uint64_t generation, std::uint64_t round) noexcept;
/** Record an acquire() by the current task (cautiousness-checked). */
void noteAcquire(const runtime::Lockable* l);
/**
 * Pre-populate the declared set without a cautiousness check — used when
 * the DIG commit phase resumes a task whose acquires happened during
 * inspect (continuation optimization).
 */
void seedAcquire(const runtime::Lockable* l) noexcept;
/** Record the operator's failsafe annotation (flips to Write state). */
void noteCautiousPoint() noexcept;
/** Validate a checked access; is_write selects the violation kind. */
void noteAccess(const runtime::Lockable* l, ViolationKind kind_if_unmarked,
                const char* file, int line);
/** True if the current task has declared l (test helper). */
bool taskHolds(const runtime::Lockable* l) noexcept;

// ----------------------------------------------------------------------
// v2 hooks — environment-taint tracking (EnvLeak). Like the hooks above
// these are only called from DETGALOIS_DETSAN-instrumented TUs, via the
// DETSAN_TAINT_* / DETSAN_VALUE macros below.
// ----------------------------------------------------------------------

/**
 * Register v as derived from an environmental source and return it
 * unchanged (the wrappers are pass-through so audited code reads
 * naturally). The registry is bounded (registrations beyond the cap are
 * dropped — a checking-mode memory guard, flagged on the report).
 */
std::uint64_t taintValue(TaintSource source, std::uint64_t v,
                         const char* file, int line);
/** True if v is a registered tainted value (test helper). */
bool valueTainted(std::uint64_t v) noexcept;
/** Drop all registered taints (configure() also does this). */
void clearTaints() noexcept;
/**
 * Checked value channel: v is about to flow into schedule-affecting
 * state (task ordering, a worklist key, a hash, a trace digest). If v
 * is tainted, record an EnvLeak violation naming the channel and the
 * taint's source. Valid outside task scope — ordering code runs between
 * tasks; such records carry task/generation/round 0.
 */
void noteValue(const char* channel, std::uint64_t v, const char* file,
               int line);

} // namespace galois::analysis

// ----------------------------------------------------------------------
// Checked access entry points.
//
// Wrap every read/write of data guarded by a Lockable:
//
//   DETSAN_READ(g.lock(n));   // about to read data guarded by lock(n)
//   DETSAN_WRITE(g.lock(n));  // about to write it (flips to Write state)
//   DETSAN_ACCESS(g.lock(n)); // mutable accessor: mark required, but do
//                             // not flip the cautiousness state (a
//                             // non-const accessor is not proof of a
//                             // write, and prefix reads are legal)
//
// CsrGraph routes its node/edge data accessors through these, so graph
// applications are covered without per-app changes; operators with
// side-band state (demonstrators: bfs, sssp) annotate their writes
// directly. Without DETGALOIS_DETSAN all three compile to nothing.
// ----------------------------------------------------------------------

#if defined(DETGALOIS_DETSAN)
#define DETSAN_READ(lockable)                                             \
    ::galois::analysis::noteAccess(                                       \
        &(lockable), ::galois::analysis::ViolationKind::UnmarkedRead,     \
        __FILE__, __LINE__)
#define DETSAN_WRITE(lockable)                                            \
    ::galois::analysis::noteAccess(                                       \
        &(lockable), ::galois::analysis::ViolationKind::UnmarkedWrite,    \
        __FILE__, __LINE__)
#define DETSAN_ACCESS(lockable)                                           \
    ::galois::analysis::noteAccess(                                       \
        &(lockable), ::galois::analysis::ViolationKind::UnmarkedAccess,   \
        __FILE__, __LINE__)
#else
#define DETSAN_READ(lockable) ((void)0)
#define DETSAN_WRITE(lockable) ((void)0)
#define DETSAN_ACCESS(lockable) ((void)0)
#endif

// ----------------------------------------------------------------------
// Environment-audit entry points (detsan v2).
//
// Taint wrappers — the audited way to derive a value from an
// environmental source (the static pass, scripts/detaudit.sh, bans the
// raw sources elsewhere). Each is an expression returning the value as
// std::uint64_t, instrumented or not:
//
//   key = DETSAN_TAINT_ADDRESS(ptr);    // pointer identity / ASLR bits
//   t   = DETSAN_TAINT_CLOCK(ns);       // a clock reading
//   h   = DETSAN_TAINT_HASH_SEED(v);    // runtime-seeded hash output
//   e   = DETSAN_TAINT_ENV(v);          // parsed environment variable
//
// Checked value channels — wrap any value flowing into task ordering,
// worklist keys, hashes, or trace digests:
//
//   DETSAN_VALUE("idservice.parent-id", id);
//
// A tainted value reaching a channel is a ViolationKind::EnvLeak.
// DETGALOIS_DETSAN_INSTRUMENTED is 1/0 per translation unit (a macro,
// not an inline function, so differently-instrumented TUs never violate
// the ODR); the service stamps it into receipts as `env_audited`.
// ----------------------------------------------------------------------

#if defined(DETGALOIS_DETSAN)
#define DETGALOIS_DETSAN_INSTRUMENTED 1
#define DETSAN_VALUE(channel, v)                                          \
    ::galois::analysis::noteValue((channel),                              \
                                  static_cast<std::uint64_t>(v),          \
                                  __FILE__, __LINE__)
#define DETSAN_TAINT_ADDRESS(p)                                           \
    ::galois::analysis::taintValue(                                       \
        ::galois::analysis::TaintSource::Address,                         \
        static_cast<std::uint64_t>(                                       \
            reinterpret_cast<std::uintptr_t>(                             \
                static_cast<const void*>(p))),                            \
        __FILE__, __LINE__)
#define DETSAN_TAINT_CLOCK(v)                                             \
    ::galois::analysis::taintValue(::galois::analysis::TaintSource::Clock,\
                                   static_cast<std::uint64_t>(v),         \
                                   __FILE__, __LINE__)
#define DETSAN_TAINT_HASH_SEED(v)                                         \
    ::galois::analysis::taintValue(                                       \
        ::galois::analysis::TaintSource::HashSeed,                        \
        static_cast<std::uint64_t>(v), __FILE__, __LINE__)
#define DETSAN_TAINT_ENV(v)                                               \
    ::galois::analysis::taintValue(::galois::analysis::TaintSource::Env,  \
                                   static_cast<std::uint64_t>(v),         \
                                   __FILE__, __LINE__)
#else
#define DETGALOIS_DETSAN_INSTRUMENTED 0
// sizeof keeps (v) an unevaluated operand — no codegen, no side
// effects, but call-site locals stay "used" (no -Wunused-variable).
#define DETSAN_VALUE(channel, v) ((void)sizeof((v)))
#define DETSAN_TAINT_ADDRESS(p)                                           \
    (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(         \
        static_cast<const void*>(p))))
#define DETSAN_TAINT_CLOCK(v) (static_cast<std::uint64_t>(v))
#define DETSAN_TAINT_HASH_SEED(v) (static_cast<std::uint64_t>(v))
#define DETSAN_TAINT_ENV(v) (static_cast<std::uint64_t>(v))
#endif

#endif // DETGALOIS_ANALYSIS_DETSAN_H
