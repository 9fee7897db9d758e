/**
 * @file
 * Public Galois-style API: on-demand deterministic parallelism.
 *
 * A program is the unordered-task loop of Figure 1a:
 *
 * @code
 *   galois::Config cfg;
 *   cfg.exec = galois::Exec::Det;   // or NonDet, or Serial — on demand
 *   cfg.threads = 8;
 *   galois::RunReport r = galois::forEach(initial_tasks,
 *       [&](Node& n, galois::Context<Node>& ctx) {
 *           ctx.acquire(n.lock());            // declare neighborhood
 *           for (auto e : g.edges(n))
 *               ctx.acquire(g.dst(e).lock());
 *           if (ctx.tryCautiousPoint())       // failsafe point
 *               return;
 *           ...writes...; ctx.push(child);    // create new tasks
 *       }, cfg);
 * @endcode
 *
 * The operator is written once; whether it runs non-deterministically
 * (speculative, Fig. 1b), deterministically (DIG scheduling, Fig. 2) or
 * serially is chosen by Config::exec at run time — the paper's on-demand
 * determinism. Under Exec::Det the final state is a function of the input
 * only: identical across thread counts and machines (portability) with an
 * adaptive, output-invariant-by-default window policy (parameter-freedom).
 */

#ifndef DETGALOIS_GALOIS_GALOIS_H
#define DETGALOIS_GALOIS_GALOIS_H

#include <string>
#include <type_traits>
#include <vector>

#include "coredet/executor_coredet.h"
#include "runtime/executor_det.h"
#include "runtime/executor_det_ref.h"
#include "runtime/executor_nondet.h"
#include "runtime/executor_serial.h"

namespace galois {

/** Scheduler selection — the on-demand determinism switch. */
enum class Exec
{
    Serial, //!< one thread, FIFO (reference semantics)
    NonDet, //!< speculative parallel execution (Fig. 1b) — fastest
    Det,    //!< deterministic DIG scheduling (Fig. 2) — portable output
    /** Serial reference implementation of the DIG schedule — the
     *  differential-testing oracle. Same committed-id sequence, trace
     *  digest and final state as Det, produced by an independent
     *  implementation (see runtime/executor_det_ref.h). Slow; meant
     *  for tests and debugging, not production runs. */
    DetRef,
    /** PBBS deterministic-reservations scheduling (reserve/commit/retry
     *  over id-ordered prefixes): the DIG executor with the reservation
     *  admission policy (runtime/executor_det.h, runtime/window.h).
     *  Output is portable exactly like Det's — and EQUAL to Det's for
     *  the same workload — but the round schedule (and the trace
     *  digest) is backend-specific: result determinism without schedule
     *  identity. */
    DetRes,
    /** CoreDet-style DMP-O scheduling (coredet/executor_coredet.h):
     *  speculative execution whose every scheduling decision is
     *  serialized through a deterministic token. Reproducible for a
     *  fixed (threads, quantum, rotation), but NOT portable across
     *  thread counts — CoreDet's documented contract, and the paper's
     *  fourth comparison point. */
    CoreDet
};

/** Operator-facing context (alias of the runtime context). */
template <typename T>
using Context = runtime::UserContext<T>;

using runtime::Lockable;
using runtime::RunReport;
/** Machine-readable benchmark observation (see runtime/stats.h and the
 *  JSON emitters in runtime/report_io.h). */
using runtime::BenchRecord;
using runtime::RoundSample;
using runtime::TraceEvent;
using DetOptions = runtime::DetOptions;
/** Deterministic-reservations tuning (Config::detres; Exec::DetRes
 *  only). The PBBS round size is a genuine hand-tuned parameter —
 *  changing it changes the schedule/digest but never the result. */
using DetResOptions = runtime::DetResOptions;
/** CoreDet scheduler tuning (Config::coredet; Exec::CoreDet only):
 *  quantum size and token-rotation policy. */
using CoreDetOptions = coredet::CoreDetOptions;
/** Thrown by the deterministic executor's progress watchdog. */
using runtime::LivelockError;
/** Thrown by the wall-clock job watchdog / external cancellation
 *  (DetOptions::wallDeadlineSeconds, DetOptions::cancelFlag). */
using runtime::DeadlineError;
/** Deterministic fault injection (see support/failpoint.h). */
using support::FailPlan;
using support::FailpointError;
namespace failpoints = support::failpoints;
/** Determinism sanitizer (see analysis/detsan.h): opt-in checking mode
 *  that verifies the marked-access and cautiousness disciplines the
 *  schedulers' guarantees rest on. Configure with detsan::configure(),
 *  assert on detsan::takeReport(). Checks are compiled in only under
 *  -DDETGALOIS_DETSAN. */
using analysis::DetSanError;
using analysis::DetSanOptions;
using analysis::DetSanReport;
namespace detsan = analysis;

/** Speculative-executor worklist policy (NonDet only). */
enum class NdWorklist
{
    ChunkedFifo, //!< breadth-ish order; right for relaxation fixpoints
    ChunkedLifo  //!< depth-ish order; best locality for cavity workloads
};

/** Low-level worklist configuration (alias of the runtime policy). */
using runtime::WorklistPolicy;

/** Execution configuration. */
struct Config
{
    Exec exec = Exec::NonDet;
    unsigned threads = 1;
    /** Deterministic-scheduler tuning. Shared by Exec::Det, Exec::DetRef
     *  and Exec::DetRes (the id-assignment knobs must agree for the
     *  backends' results to be comparable); ignored by the others. */
    runtime::DetOptions det;
    /** Deterministic-reservations prefix tuning (Exec::DetRes only). */
    runtime::DetResOptions detres;
    /** CoreDet quantum/rotation tuning (Exec::CoreDet only). */
    coredet::CoreDetOptions coredet;
    /** Worklist policy of the speculative executor. */
    NdWorklist ndWorklist = NdWorklist::ChunkedFifo;
    /**
     * Tasks per worklist chunk — the stealing granularity of the
     * speculative executor (NonDet only). Larger chunks amortize the
     * shared-deque lock and keep related tasks on one thread; smaller
     * chunks spread sparse work faster. Clamped to >= 1.
     */
    unsigned ndChunkSize = 64;
    /** Feed the software cache model (locality experiments, Fig. 11). */
    bool collectLocality = false;
    /**
     * Collect per-round TraceEvents (RunReport::traceEvents) for the
     * chrome://tracing dump (runtime/report_io.h). Deterministic-executor
     * only; zero cost when off (the default): no event is allocated and
     * the round protocol pays one predicted branch per phase.
     */
    bool traceRounds = false;

    /** The speculative executor's worklist policy from these knobs. */
    WorklistPolicy
    worklistPolicy() const
    {
        return WorklistPolicy{ndWorklist == NdWorklist::ChunkedFifo,
                              ndChunkSize};
    }
};

/** Parse an executor name ("serial", "nondet", "det", "det-ref",
 *  "detres", "coredet") — the command-line switch the paper describes
 *  for selecting determinism on demand. */
inline Exec
parseExec(const std::string& name)
{
    if (name == "serial")
        return Exec::Serial;
    if (name == "det")
        return Exec::Det;
    if (name == "det-ref" || name == "detref")
        return Exec::DetRef;
    if (name == "detres" || name == "det-res")
        return Exec::DetRes;
    if (name == "coredet")
        return Exec::CoreDet;
    return Exec::NonDet;
}

/**
 * Execute the unordered-task loop over the initial tasks with operator op.
 *
 * @tparam T  task value type (copyable).
 * @tparam F  callable void(T&, Context<T>&); must follow the cautious-task
 *            discipline (acquire everything before the first write, and
 *            mark the boundary with `if (ctx.tryCautiousPoint()) return;`).
 * @return aggregate statistics of the run.
 */
template <typename T, typename F>
RunReport
forEach(const std::vector<T>& initial, F&& op, const Config& cfg)
{
    switch (cfg.exec) {
      case Exec::Serial:
        return runtime::executeSerial(initial, std::forward<F>(op),
                                      cfg.collectLocality);
      case Exec::NonDet:
        return runtime::executeNonDet(initial, std::forward<F>(op),
                                      cfg.threads, cfg.worklistPolicy(),
                                      cfg.collectLocality);
      case Exec::Det:
        return runtime::executeDet(initial, std::forward<F>(op),
                                   cfg.threads, cfg.det,
                                   cfg.collectLocality, cfg.traceRounds);
      case Exec::DetRef:
        return runtime::executeDetRef(initial, std::forward<F>(op),
                                      cfg.det);
      case Exec::DetRes: {
        runtime::DetExecutor<T, std::remove_reference_t<F>,
                             runtime::ReservationPolicy>
            exec(op, cfg.threads, cfg.det,
                 runtime::ReservationPolicy(cfg.detres), cfg.collectLocality,
                 cfg.traceRounds);
        return exec.run(initial);
      }
      case Exec::CoreDet:
        return coredet::executeCoreDet(initial, std::forward<F>(op),
                                       cfg.threads, cfg.coredet,
                                       cfg.collectLocality);
    }
    return RunReport{}; // unreachable
}

} // namespace galois

#endif // DETGALOIS_GALOIS_GALOIS_H
