/**
 * @file
 * Shared helpers for the benches.
 *
 * Every bench takes one optional positional number, its scale (the
 * trace scale factor, 1.0 = the paper's request counts; for
 * bench_ext_endurance the volume written, in device capacities), and
 * only the flags it acts on.
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

/** The flags a bench acts on; parseBenchArgs rejects all others. */
enum BenchFlag : unsigned
{
    kJobsFlag = 1u << 0,        ///< --jobs=N
    kMetricsJsonFlag = 1u << 1, ///< --metrics-json=FILE
    kFigureFlag = 1u << 2,      ///< --figure=NAME
};

/** Parsed bench command line: positional scale + accepted flags. */
struct BenchArgs
{
    /** Trace scale factor (positional, default per bench). */
    double scale = 1.0;
    /** Sweep worker threads (--jobs=N; 0 = hardware concurrency).
     * Output is byte-identical for every value. */
    unsigned jobs = 0;
    /** Run-report JSON output (--metrics-json=FILE; empty = off). */
    std::string metricsJson;
    /** Artifact to print (--figure=NAME; empty = all). */
    std::string figure;
};

/**
 * Parse the bench command line: at most one positional scale plus the
 * flags in @p flags (a BenchFlag mask; none by default). Other flags,
 * malformed values and a second positional abort with sim::fatal so a
 * typo doesn't silently run the default configuration. The scale uses
 * the strict core::parseF64 contract ("0.5x" or "+1" are errors, not
 * silently-accepted prefixes) and must be positive.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, double fallback_scale,
               unsigned flags = 0)
{
    BenchArgs args;
    args.scale = fallback_scale;
    bool have_scale = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if ((flags & kMetricsJsonFlag) &&
            a.rfind("--metrics-json=", 0) == 0) {
            args.metricsJson = a.substr(15);
            if (args.metricsJson.empty())
                sim::fatal("--metrics-json needs a file");
        } else if ((flags & kJobsFlag) && a.rfind("--jobs=", 0) == 0) {
            if (!core::parseJobs(a.substr(7), args.jobs))
                sim::fatal("bad --jobs: " + a.substr(7));
        } else if ((flags & kFigureFlag) &&
                   a.rfind("--figure=", 0) == 0) {
            args.figure = a.substr(9);
            if (args.figure.empty())
                sim::fatal("--figure needs a name");
        } else if (a.rfind("--", 0) == 0) {
            sim::fatal("unknown bench flag: " + a);
        } else if (have_scale) {
            sim::fatal("unexpected bench argument: " + a);
        } else {
            if (!core::parseF64(a, args.scale) || args.scale <= 0.0)
                sim::fatal("bad bench scale: " + a);
            have_scale = true;
        }
    }
    return args;
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
