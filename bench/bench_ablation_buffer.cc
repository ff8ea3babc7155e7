/**
 * @file
 * Ablation A2 (Implication 3): RAM-buffer hit rate versus buffer
 * size under the observed weak localities.
 *
 * The paper argues a large RAM buffer is unprofitable because
 * localities are weak. We sweep the buffer size on several apps and
 * report the read hit rate and MRT.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace emmcsim;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, 0.5, bench::kJobsFlag);
    const double scale = args.scale;
    std::cout << "== Ablation A2: RAM buffer size vs hit rate "
                 "(Implication 3; scale " << scale << ") ==\n\n";

    core::TablePrinter table({"Workload", "Buffer", "Read hit rate (%)",
                              "MRT (ms)"});

    const std::vector<std::string> apps = {"Twitter", "Facebook",
                                           "Movie"};
    const std::vector<std::uint64_t> sizes_mb = {0, 1, 4, 16, 64};
    std::vector<trace::Trace> traces;
    traces.reserve(apps.size());
    for (const std::string &app : apps)
        traces.push_back(bench::makeAppTrace(app, scale));

    std::vector<core::SweepCase> cases;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        for (std::uint64_t mb : sizes_mb) {
            core::SweepCase c;
            c.label = apps[ti];
            c.trace = &traces[ti];
            c.kind = core::SchemeKind::PS4;
            if (mb > 0) {
                c.opts.ramBuffer = true;
                c.opts.ramBufferUnits = mb * sim::kMiB / sim::kUnitBytes;
            }
            cases.push_back(std::move(c));
        }
    }
    const std::vector<core::CaseResult> results =
        core::runCases(cases, args.jobs);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::CaseResult &res = results[i];
        const std::uint64_t mb = sizes_mb[i % sizes_mb.size()];
        if (mb == 0) {
            table.addRow({cases[i].label, "off", "-",
                          core::fmt(res.meanResponseMs)});
        } else {
            table.addRow({cases[i].label, core::fmt(mb) + "MB",
                          core::fmt(100.0 * res.bufferReadHitRate, 1),
                          core::fmt(res.meanResponseMs)});
        }
    }
    table.print(std::cout);

    std::cout << "\nExpected: hit rates stay low even for large "
                 "buffers because spatial/temporal localities are "
                 "weak (Characteristic 5) — the paper's argument "
                 "against spending BOM on a large RAM buffer.\n";
    return 0;
}
