/**
 * @file
 * Characterize one application the way Section III of the paper does:
 * generate its trace, replay it on the conventional eMMC model with
 * power-mode emulation, and print its Table III row, Table IV row,
 * and Fig 4/5/6 distributions.
 *
 * Usage: characterize_app [app-name] [scale]
 */

#include <iostream>

#include "analysis/distributions.hh"
#include "analysis/size_stats.hh"
#include "analysis/timing_stats.hh"
#include "core/cli_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

namespace {

void
printDistribution(const std::string &title, const sim::Histogram &h,
                  const std::vector<std::string> &labels)
{
    std::cout << "\n" << title << "\n";
    core::TablePrinter table({"Bucket", "Share (%)"});
    for (std::size_t i = 0; i < h.bucketCount(); ++i)
        table.addRow({labels[i], core::fmt(100.0 * h.fractionAt(i), 1)});
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "Facebook";
    double scale = 1.0;
    if (argc > 3 ||
        (argc > 2 && (!core::parseF64(argv[2], scale) || scale <= 0))) {
        std::cerr << "usage: characterize_app [app-name] [scale]\n"
                     "  scale: a positive number\n";
        return 2;
    }

    const workload::AppProfile *profile = workload::findProfile(app);
    if (profile == nullptr) {
        std::cerr << "unknown application: " << app << "\n";
        return 1;
    }

    workload::TraceGenerator gen(*profile, /*seed=*/7);
    trace::Trace t = gen.generate(scale);

    std::cout << "Characterization of \"" << profile->name << "\" — "
              << profile->description << "\n";

    // Table III row.
    analysis::SizeStats ss = analysis::computeSizeStats(t);
    std::cout << "\nSize statistics (Table III row):\n";
    core::TablePrinter size_table({"Metric", "Value"});
    size_table.addRow({"Data size (KB)", core::fmt(ss.dataSizeKb, 0)});
    size_table.addRow({"Requests", core::fmt(ss.requests)});
    size_table.addRow({"Max size (KB)", core::fmt(ss.maxSizeKb, 0)});
    size_table.addRow({"Ave size (KB)", core::fmt(ss.aveSizeKb, 1)});
    size_table.addRow({"Ave read size (KB)", core::fmt(ss.aveReadKb, 1)});
    size_table.addRow(
        {"Ave write size (KB)", core::fmt(ss.aveWriteKb, 1)});
    size_table.addRow(
        {"Write requests (%)", core::fmt(ss.writeReqPct, 2)});
    size_table.addRow(
        {"Write data (%)", core::fmt(ss.writeSizePct, 2)});
    size_table.print(std::cout);

    // Replay on the conventional device to obtain timing columns.
    core::ExperimentOptions opts;
    opts.powerMode = true;
    core::CaseResult res = core::runCase(t, core::SchemeKind::PS4, opts);
    analysis::TimingStats ts =
        analysis::computeTimingStats(res.replayed);

    std::cout << "\nTiming statistics (Table IV row, replayed on the "
                 "4PS device):\n";
    core::TablePrinter time_table({"Metric", "Value"});
    time_table.addRow({"Duration (s)", core::fmt(ts.durationSec, 0)});
    time_table.addRow(
        {"Arrival rate (req/s)", core::fmt(ts.arrivalRate, 2)});
    time_table.addRow(
        {"Access rate (KB/s)", core::fmt(ts.accessRateKbps, 2)});
    time_table.addRow({"NoWait ratio (%)", core::fmt(ts.noWaitPct, 0)});
    time_table.addRow(
        {"Mean service (ms)", core::fmt(ts.meanServiceMs, 2)});
    time_table.addRow(
        {"Mean response (ms)", core::fmt(ts.meanResponseMs, 2)});
    time_table.addRow(
        {"Spatial locality (%)", core::fmt(ts.spatialPct, 2)});
    time_table.addRow(
        {"Temporal locality (%)", core::fmt(ts.temporalPct, 2)});
    time_table.print(std::cout);

    printDistribution("Request size distribution (Fig 4):",
                      analysis::sizeDistribution(t),
                      analysis::sizeBucketLabels());
    printDistribution("Response time distribution (Fig 5):",
                      analysis::responseDistribution(res.replayed),
                      analysis::responseBucketLabels());
    printDistribution("Inter-arrival distribution (Fig 6):",
                      analysis::interArrivalDistribution(t),
                      analysis::interArrivalBucketLabels());
    return 0;
}
