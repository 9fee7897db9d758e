/**
 * @file
 * The two round-admission policies of DetExecutor (runtime/
 * executor_det.h): the adaptive commit-ratio window (Section 3.2 —
 * calculateWindow of Figure 2; Exec::Det) and the PBBS reservation
 * prefix (Exec::DetRes). A policy answers one question — how many tasks
 * the next round admits — through beginGeneration/size/update, and
 * names its backend's diagnostics and failpoint sites (AdmissionLabels).
 *
 * The policy is the paper's "parameterless" knob replacement: instead of
 * a hand-tuned round size, the window doubles while the commit ratio
 * meets the target and shrinks proportionally to the observed ratio when
 * it does not, never dropping below minWindow. Everything here is pure
 * integer/double arithmetic on (attempted, committed) pairs — a
 * deterministic function of the schedule, which is what makes the whole
 * scheduler thread-count invariant (tests/window_test.cpp pins the exact
 * update rule; the golden-digest harness pins its composition with the
 * rest of the runtime).
 */

#ifndef DETGALOIS_RUNTIME_WINDOW_H
#define DETGALOIS_RUNTIME_WINDOW_H

#include <algorithm>
#include <cstdint>

namespace galois::runtime {

/**
 * The names a round-admission policy gives the DetExecutor it is plugged
 * into: the executor name and size word its watchdog diagnostics print,
 * and its four failpoint sites (support/failpoint.h). Compile-time
 * constants of the policy type, so choosing a policy costs nothing in
 * the round loop.
 */
struct AdmissionLabels
{
    const char* executor;    //!< backend name in Livelock/DeadlineError
    const char* sizeWord;    //!< "window" or "prefix"
    const char* idsortSite;  //!< generation build (key: generation)
    const char* inspectSite; //!< per task, parallel phase 1 (key: id)
    const char* commitSite;  //!< per selected task (key: id)
    const char* mergeSite;   //!< serial merge (key: round)
};

/** Knobs of the window policy (a validated subset of DetOptions). */
struct WindowConfig
{
    /** Commit-ratio target; growth at or above it, shrink below. */
    double commitTarget = 0.95;
    /** Lower clamp of every shrink. */
    std::uint64_t minWindow = 16;
    /** First window of the run (0: defaults to 4*minWindow). */
    std::uint64_t initialWindow = 0;
};

/**
 * Window-size state machine. Usage per generation:
 *
 *   policy.beginGeneration();
 *   while (tasks remain) {
 *       take = min(policy.size(), remaining);
 *       ... run round ...
 *       policy.update(attempted, committed);
 *   }
 *
 * The window deliberately persists across generations (a workload's
 * conflict density rarely changes abruptly between generations, and
 * re-warming from the initial window every generation would pay the
 * ramp-up repeatedly).
 */
class WindowPolicy
{
  public:
    static constexpr AdmissionLabels kLabels{
        "DetExecutor", "window",     "det.idsort",
        "det.inspect", "det.commit", "det.merge"};

    WindowPolicy() = default;

    explicit WindowPolicy(const WindowConfig& cfg) : cfg_(cfg) {}

    /**
     * Start a generation: on the very first generation, seed the
     * adaptive start size. The default start is deliberately small
     * (4*minWindow): the adaptive policy doubles its way up in a
     * handful of rounds when tasks are independent, while a large
     * initial window is disastrous for dependence-heavy starts (e.g.
     * Delaunay insertion, where early tasks all conflict on the root
     * bucket).
     */
    void
    beginGeneration()
    {
        if (window_ == 0)
            window_ = cfg_.initialWindow != 0 ? cfg_.initialWindow
                                              : 4 * cfg_.minWindow;
    }

    /** Current window size (tasks per round). */
    std::uint64_t size() const { return window_; }

    /**
     * Fold one round's outcome into the window: double on commit ratio
     * >= target (capped so repeated doubling cannot overflow), shrink
     * proportionally to ratio/target otherwise, clamped at minWindow.
     * An empty round (attempted == 0) counts as a full commit.
     */
    void
    update(std::uint64_t attempted, std::uint64_t committed)
    {
        const double ratio = attempted == 0
                                 ? 1.0
                                 : static_cast<double>(committed) /
                                       static_cast<double>(attempted);
        if (ratio >= cfg_.commitTarget) {
            if (window_ < (std::uint64_t(1) << 40))
                window_ *= 2;
        } else {
            window_ = std::max<std::uint64_t>(
                cfg_.minWindow,
                static_cast<std::uint64_t>(static_cast<double>(window_) *
                                           ratio / cfg_.commitTarget));
        }
    }

  private:
    WindowConfig cfg_;
    std::uint64_t window_ = 0;
};

/**
 * Tuning of the deterministic-reservations prefix schedule (Exec::DetRes,
 * Config::detres). Like DetOptions, the output of a run is a function of
 * these values and the input alone — never of the thread count. Unlike
 * DetOptions, roundSize is a genuine hand-tuned parameter (the PBBS
 * round size); changing it changes the schedule (and the DetRes digest)
 * but never the final state. initialPrefix == roundSize admits exactly
 * roundSize tasks every round: the hand-tuned fixed window that the
 * window-policy ablation (bench/abl_window.cpp) sets against the
 * adaptive window.
 */
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
};

/**
 * Deterministic-reservations prefix schedule — the round-size policy of
 * PBBS's speculative_for (Blelloch et al.). Plugged into DetExecutor in
 * place of WindowPolicy it turns the DIG executor into Exec::DetRes.
 *
 * Where WindowPolicy adapts on the *commit ratio*, this policy grows
 * the prefix with the *cumulative committed count*:
 *
 *     prefix = min(roundSize, max(initialPrefix, total_committed))
 *
 * the BRIO-style doubling PBBS's incremental codes use — early
 * dependence-heavy work runs in small rounds, bulk work in full-size
 * ones, and the cap never adapts (the hand-tuned parameter the paper
 * contrasts with DIG's parameterless window). Like WindowPolicy, the
 * schedule is a pure function of per-round committed counts, so it is
 * identical on every thread count; the cumulative count persists
 * across generations for the same reason the adaptive window does.
 */
class ReservationPolicy
{
  public:
    static constexpr AdmissionLabels kLabels{
        "DetExecutor (DetRes)", "prefix",        "detres.idsort",
        "detres.reserve",       "detres.commit", "detres.merge"};

    explicit ReservationPolicy(const DetResOptions& opt)
        : opt_(opt.validated())
    {}

    /** Start a generation. The committed count persists (see above). */
    void beginGeneration() {}

    /** Current prefix size (tasks per round). */
    std::uint64_t
    size() const
    {
        return std::min(opt_.roundSize,
                        std::max(opt_.initialPrefix, committed_));
    }

    /** Fold one round's outcome into the cumulative committed count. */
    void
    update(std::uint64_t /*attempted*/, std::uint64_t committed)
    {
        committed_ += committed;
    }

  private:
    DetResOptions opt_;
    std::uint64_t committed_ = 0;
};

} // namespace galois::runtime

#endif // DETGALOIS_RUNTIME_WINDOW_H
