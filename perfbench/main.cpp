/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload graph-det|mesh-det|svc-mix --seed N --seconds S
 *             --trace 0|1 [--spans PATH]
 *
 * Runs one workload, generated from the seed, for S seconds of measured
 * work, verifies every output, and prints a human-readable report
 * followed by one JSON line. With --trace 0 it reports the end-to-end
 * metrics; with --trace 1 the per-layer metrics, and --spans names the
 * chrome://tracing file the in-memory spans are written to at exit.
 * Exits 1 when any output fails verification, 2 on a usage error.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common.h"

using namespace perfbench;

namespace {

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload graph-det|mesh-det|svc-mix --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 argv0);
    return 2;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
optimized()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opt.threads = hw;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char* v = argv[++i];
        char* endp = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &endp, 10);
            haveSeed = *v && !*endp;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &endp);
            haveSeconds = *v && !*endp && opt.seconds > 0 &&
                          opt.seconds <= 3600;
        } else if (a == "--trace") {
            haveTrace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
            opt.trace = !std::strcmp(v, "1");
        } else if (a == "--spans") {
            opt.spansPath = v;
        } else {
            return usage(argv[0]);
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage(argv[0]);

    Report rep;
    rep.stamp("nproc", std::to_string(hw));
    rep.stamp("cpu", cpuModel());
    rep.stamp("compiler", PERFBENCH_COMPILER);
    rep.stamp("build_type", PERFBENCH_BUILD_TYPE);
    rep.stamp("optimized", optimized() ? "yes" : "NO");
    rep.stamp("sanitizers", sanitized() ? "ON" : "off");
    rep.stamp("threads", std::to_string(opt.threads) + " (full width), 1");
    if (!optimized() || sanitized())
        std::fprintf(stderr,
                     "perfbench: WARNING: this build is %s; its timings do "
                     "not describe the optimised program\n",
                     sanitized() ? "sanitized" : "not optimised");

    Spans spans(opt.trace);
    int rc = 0;
    if (opt.workload == "graph-det")
        rc = runGraphDet(opt, rep, spans);
    else if (opt.workload == "mesh-det")
        rc = runMeshDet(opt, rep, spans);
    else if (opt.workload == "svc-mix")
        rc = runSvcMix(opt, rep, spans);
    else
        return usage(argv[0]);
    if (rc != 0)
        return rc;

    if (opt.trace && !opt.spansPath.empty()) {
        if (!spans.write(opt.spansPath)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.spansPath.c_str());
            return 1;
        }
        rep.info(fmt("%zu spans written to %s", spans.size(),
                     opt.spansPath.c_str()));
    }
    rep.print(opt);
    return rep.failed() == 0 && rep.attempted() > 0 ? 0 : 1;
}
