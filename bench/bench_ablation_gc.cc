/**
 * @file
 * Ablation A1 (Implication 2): threshold-triggered GC versus
 * idle-time GC under smartphone inter-arrival gaps.
 *
 * The paper argues that because 13 of 18 apps leave >=200 ms between
 * requests — longer than a GC round — reclamation should run in those
 * gaps instead of blocking writes when the free-block pool drains.
 * We age a shrunken device and replay a write-heavy app under both
 * policies.
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
        bench::parseBenchArgs(argc, argv, 0.25, bench::kJobsFlag);
    const double scale = args.scale;
    std::cout << "== Ablation A1: blocking GC vs idle-time GC "
                 "(Implication 2; scale " << scale << ") ==\n\n";

    core::TablePrinter table({"Workload", "Policy", "MRT (ms)",
                              "Blocking GC rounds", "Idle GC steps"});

    const std::vector<std::string> apps = {"Messaging", "Twitter",
                                           "Installing"};
    std::vector<trace::Trace> traces;
    traces.reserve(apps.size());
    for (const std::string &app : apps)
        traces.push_back(bench::makeAppTrace(app, scale));

    std::vector<core::SweepCase> cases;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        for (bool idle_gc : {false, true}) {
            core::SweepCase c;
            c.label = apps[ti];
            c.trace = &traces[ti];
            c.kind = core::SchemeKind::PS4;
            c.opts.capacityScale = 1.0 / 64.0; // ~512MB device
            c.opts.prefill = 0.70; // aged: GC pressure exists
            c.opts.idleGc = idle_gc;
            cases.push_back(std::move(c));
        }
    }
    const std::vector<core::CaseResult> results =
        core::runCases(cases, args.jobs);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::CaseResult &res = results[i];
        table.addRow({cases[i].label,
                      cases[i].opts.idleGc ? "idle-time GC"
                                           : "threshold GC",
                      core::fmt(res.meanResponseMs),
                      core::fmt(res.gcBlockingRounds),
                      core::fmt(res.gcIdleRounds)});
    }
    table.print(std::cout);

    std::cout << "\nReading the table: when the aged device is under "
                 "real GC pressure (Twitter, Installing), idle-time "
                 "reclamation empties the write path — blocking rounds "
                 "drop to ~0 and MRT falls sharply, the paper's "
                 "Implication 2. When there is no pressure (Messaging "
                 "writes fit in the headroom), background compaction "
                 "is pure overhead — idle GC should stay "
                 "threshold-gated in practice.\n";
    return 0;
}
