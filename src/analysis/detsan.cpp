#include "analysis/detsan.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string_view>
#include <tuple>
#include <unordered_map>

namespace galois::analysis {

namespace {

/**
 * Per-thread shadow state of the currently executing task. Each executor
 * thread re-points this at every beginTask; accesses with no active
 * scope (setup, validation, serial reference code) are never checked.
 */
struct TaskScope
{
    bool active = false;
    bool writing = false;       //!< cautiousness state: seen first write?
    bool pastFailsafe = false;  //!< tryCautiousPoint() was called
    std::uint64_t taskId = 0;
    std::uint64_t generation = 0;
    std::uint64_t round = 0;
    const char* phase = "";
    const char* firstWriteFile = ""; //!< site that flipped to Write state
    int firstWriteLine = 0;
    /**
     * Declared neighborhood of this execution. Linear scan on access:
     * neighborhoods are degree-sized (tens), and this is a checking
     * mode — clarity over asymptotics.
     */
    std::vector<const runtime::Lockable*> held;
};

thread_local TaskScope tlsScope;

/** Process-wide collector; determinism comes from sorting at takeReport,
 *  not from arrival order. */
struct Collector
{
    std::mutex lock;
    DetSanOptions opts;
    std::vector<Violation> raw;
    bool truncated = false;
};

Collector&
collector()
{
    static Collector c;
    return c;
}

/** One registered environment-derived value. */
struct TaintRecord
{
    TaintSource source = TaintSource::Address;
    const char* file = "";
    int line = 0;
};

/**
 * Process-wide taint registry: exact 64-bit value -> provenance.
 * Bounded (a checking-mode memory guard); overflow drops further
 * registrations and flags the report. Guarded by its own mutex so the
 * violation collector's lock stays uncontended on the access fast path.
 */
struct TaintRegistry
{
    static constexpr std::size_t kCap = 1 << 16;
    std::mutex lock;
    std::unordered_map<std::uint64_t, TaintRecord> values;
    bool overflowed = false;
};

TaintRegistry&
taints()
{
    static TaintRegistry t;
    return t;
}

// Boolean knobs mirrored into one lock-free word so hook fast paths
// (every checked access) never touch the collector mutex.
constexpr std::uint32_t kGateEnabled = 1u << 0;
constexpr std::uint32_t kGateAccess = 1u << 1;
constexpr std::uint32_t kGateCautious = 1u << 2;
constexpr std::uint32_t kGateFailFast = 1u << 3;
constexpr std::uint32_t kGateValues = 1u << 4;

std::atomic<std::uint32_t> gate{kGateEnabled | kGateAccess | kGateCautious |
                                kGateValues};

std::uint32_t
gateOf(const DetSanOptions& o)
{
    return (o.enabled ? kGateEnabled : 0) | (o.checkAccess ? kGateAccess : 0) |
           (o.checkCautious ? kGateCautious : 0) |
           (o.failFast ? kGateFailFast : 0) |
           (o.checkValues ? kGateValues : 0);
}

void
push(const Violation& v)
{
    if (gate.load(std::memory_order_relaxed) & kGateFailFast)
        throw DetSanError("detsan: " + v.toString());

    Collector& c = collector();
    std::lock_guard<std::mutex> guard(c.lock);
    if (c.raw.size() >= c.opts.maxViolations)
        c.truncated = true;
    else
        c.raw.push_back(v);
}

void
record(ViolationKind kind, const char* file, int line)
{
    const TaskScope& t = tlsScope;
    Violation v;
    v.kind = kind;
    v.taskId = t.taskId;
    v.generation = t.generation;
    v.round = t.round;
    v.phase = t.phase;
    v.file = file;
    v.line = line;
    v.count = 1;
    push(v);
}

/** Order for sorting/merging: every field except count. */
auto
violationKey(const Violation& v)
{
    return std::make_tuple(v.taskId, v.generation, v.round,
                           static_cast<unsigned>(v.kind),
                           std::string_view(v.file), v.line,
                           std::string_view(v.phase),
                           std::string_view(v.channel),
                           std::string_view(v.source));
}

} // namespace

const char*
kindName(ViolationKind k) noexcept
{
    switch (k) {
      case ViolationKind::UnmarkedRead:
        return "unmarked-read";
      case ViolationKind::UnmarkedWrite:
        return "unmarked-write";
      case ViolationKind::UnmarkedAccess:
        return "unmarked-access";
      case ViolationKind::AcquireAfterWrite:
        return "acquire-after-write";
      case ViolationKind::AcquireAfterFailsafe:
        return "acquire-after-failsafe";
      case ViolationKind::EnvLeak:
        return "env-leak";
    }
    return "unknown";
}

const char*
taintSourceName(TaintSource s) noexcept
{
    switch (s) {
      case TaintSource::Address:
        return "address";
      case TaintSource::Clock:
        return "clock";
      case TaintSource::HashSeed:
        return "hash-seed";
      case TaintSource::Env:
        return "env";
    }
    return "unknown";
}

std::string
Violation::toString() const
{
    std::string s = kindName(kind);
    s += " @ ";
    s += file;
    s += ":";
    s += std::to_string(line);
    s += " (task ";
    s += std::to_string(taskId);
    if (generation != 0 || round != 0) {
        s += ", gen ";
        s += std::to_string(generation);
        s += ", round ";
        s += std::to_string(round);
    }
    s += ", ";
    s += phase;
    if (channel[0] != '\0') {
        s += ", channel ";
        s += channel;
    }
    if (source[0] != '\0') {
        s += ", source ";
        s += source;
    }
    s += ")";
    if (count > 1) {
        s += " x";
        s += std::to_string(count);
    }
    return s;
}

std::string
DetSanReport::toString() const
{
    if (clean())
        return "detsan: clean";
    std::string s = "detsan: " + std::to_string(violations.size()) +
                    " violation(s)";
    if (truncated)
        s += " [TRUNCATED]";
    if (taintOverflow)
        s += " [TAINT-OVERFLOW]";
    for (const Violation& v : violations) {
        s += "\n  ";
        s += v.toString();
    }
    return s;
}

void
configure(const DetSanOptions& opts)
{
    {
        Collector& c = collector();
        std::lock_guard<std::mutex> guard(c.lock);
        c.opts = opts;
        c.raw.clear();
        c.truncated = false;
        gate.store(gateOf(opts), std::memory_order_relaxed);
    }
    clearTaints();
}

DetSanOptions
options()
{
    Collector& c = collector();
    std::lock_guard<std::mutex> guard(c.lock);
    return c.opts;
}

void
resetReport()
{
    Collector& c = collector();
    std::lock_guard<std::mutex> guard(c.lock);
    c.raw.clear();
    c.truncated = false;
}

DetSanReport
takeReport()
{
    DetSanReport report;
    {
        Collector& c = collector();
        std::lock_guard<std::mutex> guard(c.lock);
        report.violations = std::move(c.raw);
        report.truncated = c.truncated;
        c.raw.clear();
        c.truncated = false;
    }
    {
        TaintRegistry& t = taints();
        std::lock_guard<std::mutex> guard(t.lock);
        report.taintOverflow = t.overflowed;
    }
    std::sort(report.violations.begin(), report.violations.end(),
              [](const Violation& a, const Violation& b) {
                  return violationKey(a) < violationKey(b);
              });
    // Merge identical sites, accumulating counts.
    std::size_t out = 0;
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
        if (out != 0 && violationKey(report.violations[out - 1]) ==
                            violationKey(report.violations[i])) {
            report.violations[out - 1].count += report.violations[i].count;
        } else {
            report.violations[out++] = report.violations[i];
        }
    }
    report.violations.resize(out);
    return report;
}

void
beginTask(std::uint64_t task_id, const char* phase) noexcept
{
    TaskScope& t = tlsScope;
    t.active = true;
    t.writing = false;
    t.pastFailsafe = false;
    t.taskId = task_id;
    t.phase = phase;
    t.firstWriteFile = "";
    t.firstWriteLine = 0;
    t.held.clear();
}

void
endTask() noexcept
{
    tlsScope.active = false;
    tlsScope.held.clear();
}

void
setRound(std::uint64_t generation, std::uint64_t round) noexcept
{
    tlsScope.generation = generation;
    tlsScope.round = round;
}

void
noteAcquire(const runtime::Lockable* l)
{
    TaskScope& t = tlsScope;
    if (!t.active)
        return;
    const std::uint32_t g = gate.load(std::memory_order_relaxed);
    if (!(g & kGateEnabled))
        return;
    if ((g & kGateCautious) && (t.writing || t.pastFailsafe)) {
        // The reported site is the access that flipped the state — the
        // first write — since plain acquire() calls carry no file/line.
        record(t.pastFailsafe && !t.writing
                   ? ViolationKind::AcquireAfterFailsafe
                   : ViolationKind::AcquireAfterWrite,
               t.firstWriteFile, t.firstWriteLine);
    }
    if (std::find(t.held.begin(), t.held.end(), l) == t.held.end())
        t.held.push_back(l);
}

void
seedAcquire(const runtime::Lockable* l) noexcept
{
    TaskScope& t = tlsScope;
    if (!t.active)
        return;
    if (std::find(t.held.begin(), t.held.end(), l) == t.held.end())
        t.held.push_back(l);
}

void
noteCautiousPoint() noexcept
{
    tlsScope.pastFailsafe = true;
}

void
noteAccess(const runtime::Lockable* l, ViolationKind kind_if_unmarked,
           const char* file, int line)
{
    TaskScope& t = tlsScope;
    if (!t.active)
        return;
    const std::uint32_t g = gate.load(std::memory_order_relaxed);
    if (!(g & kGateEnabled))
        return;
    if (kind_if_unmarked == ViolationKind::UnmarkedWrite && !t.writing) {
        t.writing = true;
        t.firstWriteFile = file;
        t.firstWriteLine = line;
    }
    if (!(g & kGateAccess))
        return;
    if (std::find(t.held.begin(), t.held.end(), l) == t.held.end())
        record(kind_if_unmarked, file, line);
}

bool
taskHolds(const runtime::Lockable* l) noexcept
{
    const TaskScope& t = tlsScope;
    return t.active &&
           std::find(t.held.begin(), t.held.end(), l) != t.held.end();
}

std::uint64_t
taintValue(TaintSource source, std::uint64_t v, const char* file, int line)
{
    const std::uint32_t g = gate.load(std::memory_order_relaxed);
    if (!(g & kGateEnabled) || !(g & kGateValues))
        return v;
    TaintRegistry& t = taints();
    std::lock_guard<std::mutex> guard(t.lock);
    if (t.values.size() >= TaintRegistry::kCap) {
        if (t.values.find(v) == t.values.end())
            t.overflowed = true;
        return v;
    }
    // First registration wins: the earliest provenance is the most
    // useful one to report, and keeping it makes re-taints idempotent.
    t.values.emplace(v, TaintRecord{source, file, line});
    return v;
}

bool
valueTainted(std::uint64_t v) noexcept
{
    TaintRegistry& t = taints();
    std::lock_guard<std::mutex> guard(t.lock);
    return t.values.find(v) != t.values.end();
}

void
clearTaints() noexcept
{
    TaintRegistry& t = taints();
    std::lock_guard<std::mutex> guard(t.lock);
    t.values.clear();
    t.overflowed = false;
}

void
noteValue(const char* channel, std::uint64_t v, const char* file, int line)
{
    const std::uint32_t g = gate.load(std::memory_order_relaxed);
    if (!(g & kGateEnabled) || !(g & kGateValues))
        return;
    TaintSource source;
    {
        TaintRegistry& t = taints();
        std::lock_guard<std::mutex> guard(t.lock);
        auto it = t.values.find(v);
        if (it == t.values.end())
            return;
        source = it->second.source;
    }
    // Channel checks are valid outside task scope (ordering code runs
    // between tasks, possibly on thread 0 only): the violation identity
    // is the channel site + source, with task labels when a task is
    // active — both pure functions of the schedule, so the sorted
    // report stays byte-identical across thread counts.
    const TaskScope& t = tlsScope;
    Violation viol;
    viol.kind = ViolationKind::EnvLeak;
    if (t.active) {
        viol.taskId = t.taskId;
        viol.generation = t.generation;
        viol.round = t.round;
        viol.phase = t.phase;
    }
    viol.file = file;
    viol.line = line;
    viol.count = 1;
    viol.channel = channel;
    viol.source = taintSourceName(source);
    push(viol);
}

} // namespace galois::analysis
