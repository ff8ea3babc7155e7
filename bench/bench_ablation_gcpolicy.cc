/**
 * @file
 * Ablation A6: GC victim selection — greedy versus cost-benefit — on
 * an aged device under workloads with different temporal localities.
 *
 * Greedy minimizes relocation work per round; cost-benefit ages out
 * cold data and avoids re-relocating hot blocks under skew. The
 * smartphone workloads have moderate temporal locality
 * (Characteristic 5), so the gap is visible but not dramatic — part
 * of why a simple FTL suffices (Implication 4).
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
    std::cout << "== Ablation A6: GC victim policy on an aged device "
                 "(scale " << scale << ") ==\n\n";

    core::TablePrinter table({"Workload", "Victim policy", "MRT (ms)",
                              "GC rounds", "Relocated units",
                              "Erased blocks"});

    const std::vector<std::string> apps = {"CameraVideo",
                                           "Installing"};
    std::vector<trace::Trace> traces;
    traces.reserve(apps.size());
    for (const std::string &app : apps)
        traces.push_back(bench::makeAppTrace(app, scale));

    std::vector<core::SweepCase> cases;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        for (ftl::GcVictimPolicy policy :
             {ftl::GcVictimPolicy::Greedy,
              ftl::GcVictimPolicy::CostBenefit}) {
            core::SweepCase c;
            c.label = apps[ti];
            c.trace = &traces[ti];
            c.kind = core::SchemeKind::PS4;
            c.opts.capacityScale = 1.0 / 64.0;
            c.opts.prefill = 0.70;
            c.opts.gcVictimPolicy = policy;
            cases.push_back(std::move(c));
        }
    }
    const std::vector<core::CaseResult> results =
        core::runCases(cases, args.jobs);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::CaseResult &res = results[i];
        const char *name =
            cases[i].opts.gcVictimPolicy == ftl::GcVictimPolicy::Greedy
                ? "greedy"
                : "cost-benefit";
        table.addRow({cases[i].label, name,
                      core::fmt(res.meanResponseMs),
                      core::fmt(res.gcBlockingRounds),
                      core::fmt(res.gcRelocatedUnits),
                      core::fmt(res.gcErasedBlocks)});
    }
    table.print(std::cout);

    std::cout << "\nExpected: on these mostly-uniform overwrite "
                 "patterns greedy is near-optimal; cost-benefit pays "
                 "a little extra relocation for age-sorting, which "
                 "only wins under strong hot/cold skew. Either way "
                 "the simple policy suffices (Implication 4).\n";
    return 0;
}
