#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "support/prng.h"

namespace perfbench {

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return galois::support::CounterPrng::eval(seed, stream, index);
}

std::string
fmt(const char* f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

// ---------------------------------------------------------------- Samples

std::vector<double>
Samples::sorted() const
{
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    return s;
}

double
Samples::median() const
{
    if (v_.empty())
        return 0;
    const std::vector<double> s = sorted();
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
Samples::tail() const
{
    if (v_.empty())
        return 0;
    const std::vector<double> s = sorted();
    // Highest order statistic with at least ten samples above it.
    return s.size() > 10 ? s[s.size() - 11] : s.back();
}

double
Samples::tailPct() const
{
    const std::size_t n = v_.size();
    return n > 10 ? 100.0 * static_cast<double>(n - 10) /
                        static_cast<double>(n)
                  : 100.0;
}

std::string
Samples::describe() const
{
    return fmt("median %.6g, p%.1f %.6g, n %zu", median(), tailPct(), tail(),
               n());
}

// ------------------------------------------------------------------ Usage

Usage
Usage::take()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.volCsw = static_cast<double>(ru.ru_nvcsw);
    u.involCsw = static_cast<double>(ru.ru_nivcsw);
    return u;
}

Usage
Usage::operator-(const Usage& o) const
{
    return {user - o.user, sys - o.sys, volCsw - o.volCsw,
            involCsw - o.involCsw};
}

Usage&
Usage::operator+=(const Usage& o)
{
    user += o.user;
    sys += o.sys;
    volCsw += o.volCsw;
    involCsw += o.involCsw;
    return *this;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
phaseSum(const galois::RunReport& r)
{
    const auto& p = r.phases;
    return p.assembleSeconds + p.inspectSeconds + p.foldSeconds +
           p.selectSeconds + p.mergeSeconds;
}

// ------------------------------------------------------------------ Spans

std::uint64_t
Spans::add(std::uint64_t trace, std::uint64_t parent, const std::string& name,
           double start, double end)
{
    if (!on_)
        return 0;
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({id, trace, parent, name, start, end});
    return id;
}

void
Spans::close(std::uint64_t id, double end)
{
    if (id != 0)
        spans_[id - 1].end = end;
}

void
Spans::addRounds(std::uint64_t trace, std::uint64_t parent, double loopStart,
                 const galois::RunReport& r)
{
    for (const galois::TraceEvent& e : r.traceEvents) {
        const double s = loopStart + e.startSeconds;
        add(trace, parent,
            std::string("round.") +
                galois::runtime::traceEventPhaseName(e.phase),
            s, s + e.durationSeconds);
    }
}

bool
Spans::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << fmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                   "\"parent\":%llu,\"trace\":%llu}}",
                   s.name.c_str(), static_cast<unsigned long long>(s.trace),
                   s.start * 1e6, (s.end - s.start) * 1e6,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace))
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// ----------------------------------------------------------------- Report

void
Report::e2e(const std::string& name, const std::string& unit, double value,
            const std::string& note)
{
    e2e_.push_back({name, unit, value, note});
}

void
Report::e2e(const std::string& name, const std::string& unit,
            const Samples& s)
{
    e2e(name, unit, s.median(), s.describe());
}

void
Report::layer(const std::string& name, const std::string& unit, double value,
              const std::string& note)
{
    layers_.push_back({name, unit, value, note});
}

void
Report::layer(const std::string& name, const std::string& unit,
              const Samples& s)
{
    layer(name, unit, s.median(), s.describe());
}

void
Counters::report(Report& rep) const
{
    rep.layer("runtime.rounds", "count", static_cast<double>(rounds));
    rep.layer("runtime.generations", "count",
              static_cast<double>(generations));
    rep.layer("runtime.committed", "count", static_cast<double>(committed));
    rep.layer("runtime.aborted", "count", static_cast<double>(aborted));
    rep.layer("runtime.commit_ratio", "ratio",
              static_cast<double>(committed) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, committed + aborted)));
    rep.layer("runtime.pushed", "count", static_cast<double>(pushed));
    rep.layer("runtime.atomic_ops", "count", static_cast<double>(atomicOps));
    // Low 48 bits, so the JSON number is exact.
    rep.layer("runtime.digest", "id",
              static_cast<double>(digest & ((std::uint64_t(1) << 48) - 1)));
}

void
Report::verify(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(what);
    }
}

void
Report::finding(const std::string& text)
{
    findings_.push_back(text);
}

void
Report::info(const std::string& text)
{
    info_.push_back(text);
}

void
Report::stamp(const std::string& key, const std::string& value)
{
    stamp_.emplace_back(key, value);
}

namespace {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? fmt("%.17g", v) : "null";
}

} // namespace

void
Report::print(const Options& opt) const
{
    std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const auto& [k, v] : stamp_)
        std::printf("# host %s: %s\n", k.c_str(), v.c_str());
    for (const std::string& s : info_)
        std::printf("# %s\n", s.c_str());
    for (const auto* group : {&e2e_, &layers_}) {
        const char* kind = group == &e2e_ ? "end-to-end" : "per-layer";
        for (const Metric& m : *group)
            std::printf("# %-10s %-28s %14.6g %-5s %s\n", kind,
                        m.name.c_str(), m.value, m.unit.c_str(),
                        m.note.c_str());
    }
    std::printf("# verified %llu operations, %llu failed (failed_frac %g)\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                attempted_ ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 0.0);
    for (const std::string& s : failures_)
        std::printf("# FAILED %s\n", s.c_str());
    for (const std::string& s : findings_)
        std::printf("# FINDING %s\n", s.c_str());
    if (findings_.empty())
        std::printf("# reconciliation: every check within tolerance "
                    "(max(%g s, %g%% of the parent))\n",
                    kTolAbs, kTolRel * 100);

    std::string j = "{\"workload\":\"" + jsonEscape(opt.workload) + "\"";
    j += ",\"correct\":";
    j += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    j += ",\"attempted\":" + std::to_string(attempted_);
    j += ",\"failed\":" + std::to_string(failed_);
    for (const auto* group : {&e2e_, &layers_}) {
        j += group == &e2e_ ? ",\"end_to_end\":{" : ",\"per_layer\":{";
        bool first = true;
        for (const Metric& m : *group) {
            j += first ? "" : ",";
            first = false;
            j += "\"" + jsonEscape(m.name) + "\":{\"value\":" +
                 jsonNumber(m.value) + ",\"unit\":\"" + jsonEscape(m.unit) +
                 "\"}";
        }
        j += "}";
    }
    j += ",\"host\":{";
    for (std::size_t i = 0; i < stamp_.size(); ++i)
        j += (i ? ",\"" : "\"") + jsonEscape(stamp_[i].first) + "\":\"" +
             jsonEscape(stamp_[i].second) + "\"";
    j += "}";
    j += ",\"findings\":" + std::to_string(findings_.size());
    j += "}";
    std::printf("%s\n", j.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
