/**
 * @file
 * Ablation A7: write-placement policy — dynamic round-robin versus
 * SSDsim-style static (LPN-determined) allocation.
 *
 * Static allocation pins each LPN to a plane, so a burst of writes to
 * nearby addresses can pile onto one die; dynamic placement load-
 * balances every program. The gap is the cost of the simpler policy.
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
    std::cout << "== Ablation A7: dynamic vs static write allocation "
                 "(scale " << scale << ") ==\n\n";

    core::TablePrinter table({"Workload", "Allocation", "MRT (ms)",
                              "Mean serv (ms)"});

    const std::vector<std::string> apps = {"CameraVideo", "Installing",
                                           "Booting", "Twitter"};
    std::vector<trace::Trace> traces;
    traces.reserve(apps.size());
    for (const std::string &app : apps)
        traces.push_back(bench::makeAppTrace(app, scale));

    std::vector<core::SweepCase> cases;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        for (ftl::AllocPolicy policy :
             {ftl::AllocPolicy::RoundRobin,
              ftl::AllocPolicy::StaticLpn}) {
            core::SweepCase c;
            c.label = apps[ti];
            c.trace = &traces[ti];
            c.kind = core::SchemeKind::PS4;
            c.opts.allocPolicy = policy;
            cases.push_back(std::move(c));
        }
    }
    const std::vector<core::CaseResult> results =
        core::runCases(cases, args.jobs);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::CaseResult &res = results[i];
        table.addRow(
            {cases[i].label,
             cases[i].opts.allocPolicy == ftl::AllocPolicy::RoundRobin
                 ? "dynamic (round-robin)"
                 : "static (lpn % planes)",
             core::fmt(res.meanResponseMs),
             core::fmt(res.meanServiceMs)});
    }
    table.print(std::cout);

    std::cout << "\nExpected: dynamic placement serves write-heavy "
                 "sequential streams faster because consecutive page "
                 "programs always land on distinct dies; static "
                 "placement can serialize when the stream's stride "
                 "maps to few planes.\n";
    return 0;
}
