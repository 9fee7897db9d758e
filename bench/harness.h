/**
 * @file
 * Shared infrastructure for the per-figure benchmark binaries.
 *
 * Every table and figure of the paper's evaluation has its own binary in
 * bench/; they share scaled input construction, repetition/timing policy
 * and the fixed-width table printer through this header.
 *
 * Environment knobs (performance only — never output-affecting):
 *   REPRO_SCALE    input-size multiplier (default 1.0)
 *   REPRO_REPS     repetitions per measurement, median taken (default 1)
 *   REPRO_THREADS  comma list of thread counts (default "1,2,4")
 *   REPRO_JSON     write BENCH_results.json of every measured run here
 *   REPRO_TRACE    write a chrome://tracing dump of det rounds here
 *
 * The same knobs are available as command-line flags (--scale, --reps,
 * --threads, --json, --trace) via applyCliOverrides(); flags win over
 * the environment. Every measured variant execution is recorded into a
 * process-global recorder (recordRun) and flushed at exit.
 */

#ifndef DETGALOIS_BENCH_HARNESS_H
#define DETGALOIS_BENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/stats.h"

namespace galois::bench {

/** Global benchmark settings parsed from the environment. */
struct Settings
{
    double scale = 1.0;
    int reps = 1;
    std::vector<unsigned> threads{1, 2, 4};
    std::string jsonPath;  //!< BENCH_results.json sink ("" = off)
    std::string tracePath; //!< chrome://tracing sink ("" = off)

    unsigned maxThreads() const { return threads.back(); }
};

/** Parse REPRO_* environment variables (plus any CLI overrides). */
Settings settings();

/**
 * Parse benchmark flags from argv: --json PATH, --trace PATH,
 * --scale X, --reps N, --threads L[,L...] (also the --flag=value
 * spellings). Unknown arguments are ignored. Call first in main();
 * subsequent settings() calls see the overrides.
 */
void applyCliOverrides(int argc, char** argv);

/** Should deterministic runs collect per-round TraceEvents
 *  (Config::traceRounds)? True iff a trace sink is configured. */
bool traceRequested();

/**
 * Record one measured execution into the process-global recorder.
 * Repetitions of the same (app, executor, threads) key collapse into a
 * single BenchRecord whose median_s is the median over reps and whose
 * min_s is the fastest rep; every other per-rep field (phases,
 * counters, window trajectory) and the key's chrome-trace row come
 * from that fastest rep, so the headline time and its breakdown
 * describe the same run.
 */
void recordRun(const std::string& app, const std::string& executor,
               unsigned threads, const runtime::RunReport& report);

/** Collapse everything recorded so far into BenchRecords. */
std::vector<runtime::BenchRecord> collectBenchRecords();

/** Write the configured JSON/trace sinks now (idempotent; also
 *  installed via atexit by the first recordRun). */
void flushBenchOutputs();

/** Median wall-clock seconds of reps executions of fn. */
double timeIt(const std::function<void()>& fn, int reps);

/** Fixed-width table printer (paper-shaped output). */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row (stringified cells; must match header count). */
    void addRow(std::vector<std::string> cells);

    /** Render to stdout with aligned columns. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers. */
std::string fmt(double v, int precision = 3);
std::string fmtX(double v); //!< "0.62X" style ratios

/** Median of a vector (empty -> 0). */
double median(std::vector<double> v);

/** Print the standard figure banner. */
void banner(const std::string& figure, const std::string& caption);

} // namespace galois::bench

#endif // DETGALOIS_BENCH_HARNESS_H
