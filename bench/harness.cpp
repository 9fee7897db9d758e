#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "runtime/report_io.h"
#include "support/timer.h"

namespace galois::bench {

namespace {

/** Flags parsed by applyCliOverrides(); they win over the environment. */
struct Overrides
{
    double scale = 0;  //!< 0 = unset
    int reps = 0;      //!< 0 = unset
    std::vector<unsigned> threads;
    const char* jsonPath = nullptr;
    const char* tracePath = nullptr;
};

Overrides g_overrides;

std::vector<unsigned>
parseThreadList(const char* p)
{
    std::vector<unsigned> threads;
    while (*p) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p)
            break;
        if (v >= 1 && v <= 1024)
            threads.push_back(static_cast<unsigned>(v));
        p = (*end == ',') ? end + 1 : end;
    }
    return threads;
}

} // namespace

Settings
settings()
{
    Settings s;
    if (const char* env = std::getenv("REPRO_SCALE")) {
        const double v = std::atof(env);
        if (v > 0)
            s.scale = v;
    }
    if (const char* env = std::getenv("REPRO_REPS")) {
        const int v = std::atoi(env);
        if (v >= 1)
            s.reps = v;
    }
    if (const char* env = std::getenv("REPRO_THREADS")) {
        auto threads = parseThreadList(env);
        if (!threads.empty())
            s.threads = std::move(threads);
    }
    if (const char* env = std::getenv("REPRO_JSON"))
        s.jsonPath = env;
    if (const char* env = std::getenv("REPRO_TRACE"))
        s.tracePath = env;

    if (g_overrides.scale > 0)
        s.scale = g_overrides.scale;
    if (g_overrides.reps >= 1)
        s.reps = g_overrides.reps;
    if (!g_overrides.threads.empty())
        s.threads = g_overrides.threads;
    if (g_overrides.jsonPath)
        s.jsonPath = g_overrides.jsonPath;
    if (g_overrides.tracePath)
        s.tracePath = g_overrides.tracePath;
    return s;
}

void
applyCliOverrides(int argc, char** argv)
{
    auto value = [&](int& i, const char* flag) -> const char* {
        const std::size_t n = std::strlen(flag);
        if (std::strncmp(argv[i], flag, n) != 0)
            return nullptr;
        if (argv[i][n] == '=')
            return argv[i] + n + 1;
        if (argv[i][n] == '\0' && i + 1 < argc)
            return argv[++i];
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (const char* v = value(i, "--json")) {
            g_overrides.jsonPath = v;
        } else if (const char* v = value(i, "--trace")) {
            g_overrides.tracePath = v;
        } else if (const char* v = value(i, "--scale")) {
            const double x = std::atof(v);
            if (x > 0)
                g_overrides.scale = x;
        } else if (const char* v = value(i, "--reps")) {
            const int x = std::atoi(v);
            if (x >= 1)
                g_overrides.reps = x;
        } else if (const char* v = value(i, "--threads")) {
            auto threads = parseThreadList(v);
            if (!threads.empty())
                g_overrides.threads = std::move(threads);
        }
    }
}

bool
traceRequested()
{
    return !settings().tracePath.empty();
}

// ----------------------------------------------------------------------
// Process-global run recorder
// ----------------------------------------------------------------------

namespace {

/** All reps of one (app, executor, threads) measurement. */
struct RecordGroup
{
    std::string app;
    std::string executor;
    unsigned threads = 0;
    std::vector<double> seconds;
    /** Report of the fastest rep (first on ties): the min_s headline
     *  and every per-rep field of the record — phases, counters,
     *  window trajectory, chrome-trace row — come from this one run. */
    runtime::RunReport best;
};

std::vector<RecordGroup> g_groups;
bool g_atexit_installed = false;
bool g_flushed = false;

} // namespace

void
recordRun(const std::string& app, const std::string& executor,
          unsigned threads, const runtime::RunReport& report)
{
    if (!g_atexit_installed) {
        g_atexit_installed = true;
        std::atexit(flushBenchOutputs);
    }
    RecordGroup* group = nullptr;
    for (RecordGroup& g : g_groups)
        if (g.app == app && g.executor == executor &&
            g.threads == threads) {
            group = &g;
            break;
        }
    if (!group) {
        g_groups.emplace_back();
        group = &g_groups.back();
        group->app = app;
        group->executor = executor;
        group->threads = threads;
    }
    if (group->seconds.empty() || report.seconds < group->best.seconds)
        group->best = report;
    group->seconds.push_back(report.seconds);
}

std::vector<runtime::BenchRecord>
collectBenchRecords()
{
    std::vector<runtime::BenchRecord> records;
    records.reserve(g_groups.size());
    for (const RecordGroup& g : g_groups) {
        runtime::BenchRecord rec =
            runtime::makeBenchRecord(g.app, g.executor, g.threads, g.best);
        rec.reps = static_cast<int>(g.seconds.size());
        rec.medianSeconds = median(g.seconds);
        records.push_back(std::move(rec));
    }
    return records;
}

void
flushBenchOutputs()
{
    if (g_flushed)
        return;
    g_flushed = true;
    const Settings s = settings();
    if (!s.jsonPath.empty() && !g_groups.empty()) {
        std::ofstream os(s.jsonPath);
        if (os) {
            runtime::BenchRunInfo info;
            info.scale = s.scale;
            info.reps = s.reps;
            info.threads = s.threads;
            runtime::writeBenchResults(os, collectBenchRecords(), info);
            std::fprintf(stderr, "[bench] wrote %zu records to %s\n",
                         g_groups.size(), s.jsonPath.c_str());
        } else {
            std::fprintf(stderr, "[bench] cannot open %s\n",
                         s.jsonPath.c_str());
        }
    }
    if (s.tracePath.empty())
        return;
    std::vector<runtime::TraceRun> traces;
    for (const RecordGroup& g : g_groups)
        if (!g.best.traceEvents.empty())
            traces.push_back(runtime::TraceRun{
                g.app + "/" + g.executor + "/t" + std::to_string(g.threads),
                g.best.traceEvents});
    if (!traces.empty()) {
        std::ofstream os(s.tracePath);
        if (os) {
            runtime::writeTraceEvents(os, traces);
            std::fprintf(stderr, "[bench] wrote %zu trace rows to %s\n",
                         traces.size(), s.tracePath.c_str());
        } else {
            std::fprintf(stderr, "[bench] cannot open %s\n",
                         s.tracePath.c_str());
        }
    }
}

double
timeIt(const std::function<void()>& fn, int reps)
{
    std::vector<double> times;
    times.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        support::Timer t;
        t.start();
        fn();
        t.stop();
        times.push_back(t.seconds());
    }
    return median(std::move(times));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
        std::printf("| ");
        for (std::size_t c = 0; c < width.size(); ++c) {
            const std::string& cell = c < row.size() ? row[c] : "";
            std::printf("%-*s | ", static_cast<int>(width[c]),
                        cell.c_str());
        }
        std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < width.size(); ++c) {
        for (std::size_t i = 0; i < width[c] + 2; ++i)
            std::printf("-");
        std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_)
        print_row(row);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtX(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fX", v);
    return buf;
}

void
banner(const std::string& figure, const std::string& caption)
{
    std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), caption.c_str());
}

} // namespace galois::bench
