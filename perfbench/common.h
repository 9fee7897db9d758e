/**
 * @file
 * Shared pieces of the repository benchmark: sample statistics, process
 * resource usage, in-memory spans and the metric report.
 *
 * The benchmark measures every layer from outside, by timing calls into
 * that layer's public functions and reading the fields those functions
 * already return (RunReport, Receipt). Nothing here reaches into src/.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "galois/galois.h"

namespace perfbench {

/** Seconds on the steady clock since the first call in the process. */
double now();

/** Seeded sub-stream: a pure function of (workload seed, stream, index). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index = 0);

/** Run configuration from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 1; //!< full width: the host's processor count
    std::string spansPath; //!< trace run: spans written here at exit
};

/**
 * A set of timing samples. Every timing the benchmark reports carries
 * its median, its tail and its sample count: the tail is the highest
 * percentile that still has at least ten samples beyond it.
 */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    std::size_t n() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    double median() const;
    /** Value of the tail percentile (the maximum when n <= 10). */
    double tail() const;
    /** Percentile level of tail(), in percent. */
    double tailPct() const;
    /** "median M, pP T, n N" — how every timing is printed. */
    std::string describe() const;

  private:
    std::vector<double> sorted() const;
    std::vector<double> v_;
};

/** getrusage(RUSAGE_SELF) snapshot: all threads of the process. */
struct Usage
{
    double user = 0;
    double sys = 0;
    double volCsw = 0;
    double involCsw = 0;

    static Usage take();
    Usage operator-(const Usage& o) const;
    Usage& operator+=(const Usage& o);
    double cpu() const { return user + sys; }
};

/** Peak resident set of the process so far, in MiB. */
double peakRssMb();

/**
 * In-memory spans of a traced run. A span records a layer boundary:
 * name, start, end and the span that caused it; spans of one pass or
 * job share a trace id. Written once, at exit, as chrome://tracing
 * complete events.
 */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}
    bool on() const { return on_; }
    /** Record a span; returns its id (0 when tracing is off). */
    std::uint64_t add(std::uint64_t trace, std::uint64_t parent,
                      const std::string& name, double start, double end);
    /** Set the end of span `id` (no-op for id 0). */
    void close(std::uint64_t id, double end);
    /** Round-phase spans of one forEach under a parent span starting at
     *  loopStart (RunReport::traceEvents offsets are loop-relative). */
    void addRounds(std::uint64_t trace, std::uint64_t parent,
                   double loopStart, const galois::RunReport& r);
    bool write(const std::string& path) const;
    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::uint64_t id, trace, parent;
        std::string name;
        double start, end;
    };
    bool on_;
    std::vector<Span> spans_;
};

/** The metrics, findings and verification tally of one run. */
class Report
{
  public:
    /** End-to-end metric (untraced runs). */
    void e2e(const std::string& name, const std::string& unit, double value,
             const std::string& note = "");
    void e2e(const std::string& name, const std::string& unit,
             const Samples& s);
    /** Per-layer metric (traced runs). */
    void layer(const std::string& name, const std::string& unit,
               double value, const std::string& note = "");
    void layer(const std::string& name, const std::string& unit,
               const Samples& s);

    /** Record a verified operation; a false outcome counts as failed. */
    void verify(bool ok, const std::string& what);
    /** A reconciliation gap or other observation, printed as such. */
    void finding(const std::string& text);
    /** Informational line of the human-readable report. */
    void info(const std::string& text);
    /** Host/build stamp entry, printed and carried in the JSON line. */
    void stamp(const std::string& key, const std::string& value);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Print the human-readable report, then one JSON line with every
     *  metric, the host stamp and the verification tally. */
    void print(const Options& opt) const;

  private:
    struct Metric
    {
        std::string name, unit;
        double value;
        std::string note;
    };
    std::vector<Metric> e2e_, layers_;
    std::vector<std::string> findings_, info_, failures_;
    std::vector<std::pair<std::string, std::string>> stamp_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Exact counters summed over a set of runs, and the FNV-1a fold of their
 * schedule digests in run order. R is RunReport or BenchRecord (a
 * receipt's record), which name these fields alike.
 */
struct Counters
{
    std::uint64_t rounds = 0, generations = 0, committed = 0, aborted = 0,
                  pushed = 0, atomicOps = 0;
    std::uint64_t digest = galois::runtime::kFnv1aOffset;

    template <typename R>
    void
    add(const R& r)
    {
        rounds += r.rounds;
        generations += r.generations;
        committed += r.committed;
        aborted += r.aborted;
        pushed += r.pushed;
        atomicOps += r.atomicOps;
        digest = galois::runtime::fnv1aMix(digest, r.traceDigest);
    }

    /** Emit the runtime.* counter metrics. */
    void report(Report& rep) const;
};

/** Outcome of one timed call into an app's solve function. */
struct Solve
{
    double wall = 0;  //!< outside wall time of the call
    double start = 0; //!< now() at the call
    galois::RunReport run;
    Usage usage; //!< process resource usage during the call
};

/** Time fn() (which returns the RunReport) from outside. */
template <typename Fn>
Solve
timedSolve(Fn&& fn)
{
    Solve s;
    const Usage u0 = Usage::take();
    s.start = now();
    s.run = fn();
    s.wall = now() - s.start;
    s.usage = Usage::take() - u0;
    return s;
}

/** Σ of the round-phase times of one RunReport. */
double phaseSum(const galois::RunReport& r);

/**
 * One deterministic app of a pass-based workload: prepare() restores
 * the input (untimed by the solve span), solve() runs the app under the
 * given configuration, check() verifies the output against the serial
 * reference (outside the timed span).
 */
struct DetApp
{
    std::string name;
    std::function<void()> prepare;
    std::function<galois::RunReport(const galois::Config&)> solve;
    std::function<bool()> check;
};

/** Set-up timing of a pass-based workload, filled by the workload. */
struct SetupTimes
{
    Samples gen;   //!< input generation
    Samples build; //!< graph / mesh construction
    Samples total; //!< gen + build (setup_s)
};

/**
 * The measured loop shared by graph-det and mesh-det: passes over
 * `apps` at full width, with every third pass at one thread, until
 * opt.seconds have elapsed; every pass verified, the det digest of every
 * app required equal across passes and thread counts. Reports the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run, where full-width passes alternate traced/untraced).
 *
 * @param perPassSetup  called before each pass (mesh rebuild); may add
 *                      to `setup`.
 */
void runPasses(const Options& opt, std::vector<DetApp>& apps,
               SetupTimes& setup, const std::function<void()>& perPassSetup,
               Report& rep, Spans& spans);

int runGraphDet(const Options& opt, Report& rep, Spans& spans);
int runMeshDet(const Options& opt, Report& rep, Spans& spans);
int runSvcMix(const Options& opt, Report& rep, Spans& spans);

/** Reconciliation tolerance: a gap above max(kTolAbs, kTolRel * whole)
 *  between a parent and the sum of its parts is a finding. */
inline constexpr double kTolAbs = 0.5e-3;
inline constexpr double kTolRel = 0.02;

inline double
tolerance(double whole)
{
    return std::max(kTolAbs, kTolRel * whole);
}

inline bool
reconciles(double whole, double parts)
{
    const double gap = whole - parts;
    return gap >= -tolerance(whole) && gap <= tolerance(whole);
}

/** A part of `whole` may not exceed it by more than the tolerance. */
inline bool
fitsIn(double whole, double part)
{
    return part <= whole + tolerance(whole);
}

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
