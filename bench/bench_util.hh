/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench accepts an optional first argument: the trace scale
 * factor (default 1.0 = the paper's request counts). Smaller scales
 * give quick sanity runs with the same distributions.
 */

#ifndef EMMCSIM_BENCH_BENCH_UTIL_HH
#define EMMCSIM_BENCH_BENCH_UTIL_HH

#include <string>

#include "core/cli_util.hh"
#include "core/sweep.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace emmcsim::bench {

/** Fixed seed so every bench run reproduces the same traces. */
constexpr std::uint64_t kBenchSeed = 2015; // IISWC 2015

/** Parsed bench command line: positional scale + shared flags. */
struct BenchArgs
{
    /** Trace scale factor (positional, default per bench). */
    double scale = 1.0;
    /** Sweep worker threads (--jobs=N; 0 = hardware concurrency).
     * Output is byte-identical for every value. */
    unsigned jobs = 0;
    /** Run-report JSON output (--metrics-json=FILE; empty = off). */
    std::string metricsJson;
};

/**
 * Parse the bench command line: an optional positional scale plus the
 * shared flags. Unknown flags and malformed values abort with
 * sim::fatal so a typo doesn't silently run the default
 * configuration. The scale uses the strict core::parseF64 contract —
 * "0.5x" or "+1" are errors, not silently-accepted prefixes.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, double fallback_scale = 1.0)
{
    BenchArgs args;
    args.scale = fallback_scale;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--metrics-json=", 0) == 0) {
            args.metricsJson = a.substr(15);
            if (args.metricsJson.empty())
                sim::fatal("--metrics-json needs a file");
        } else if (a.rfind("--jobs=", 0) == 0) {
            if (!core::parseJobs(a.substr(7), args.jobs))
                sim::fatal("bad --jobs: " + a.substr(7));
        } else if (a.rfind("--", 0) == 0) {
            sim::fatal("unknown bench flag: " + a);
        } else {
            if (!core::parseF64(a, args.scale) || args.scale <= 0.0)
                sim::fatal("bad bench scale: " + a);
        }
    }
    return args;
}

/** Parse the optional scale argument (argv[1], default 1.0). */
inline double
parseScale(int argc, char **argv, double fallback = 1.0)
{
    return parseBenchArgs(argc, argv, fallback).scale;
}

/** Generate the named application trace at the given scale. */
inline trace::Trace
makeAppTrace(const std::string &name, double scale,
             std::uint64_t seed = kBenchSeed)
{
    const workload::AppProfile *p = workload::findProfile(name);
    if (p == nullptr)
        sim::fatal("unknown application profile: " + name);
    workload::TraceGenerator gen(*p, seed);
    return gen.generate(scale);
}

} // namespace emmcsim::bench

#endif // EMMCSIM_BENCH_BENCH_UTIL_HH
