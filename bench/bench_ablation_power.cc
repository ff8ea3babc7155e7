/**
 * @file
 * Ablation A3 (Characteristic 4): power-saving threshold versus mean
 * response time and energy.
 *
 * Sparse workloads (YouTube, Idle-like) keep waking the device from
 * low-power mode; an aggressive threshold saves energy but inflates
 * service times. This sweep quantifies the trade-off.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scheme.hh"
#include "core/sweep.hh"
#include "host/replayer.hh"

using namespace emmcsim;

namespace {

/** One table cell: a replay with one power threshold. */
struct PowerCell
{
    double mrtMs = 0.0;
    std::uint64_t wakeups = 0;
    double lowPowerPct = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, 0.5, bench::kJobsFlag);
    const double scale = args.scale;
    std::cout << "== Ablation A3: power-saving threshold sweep "
                 "(Characteristic 4; scale " << scale << ") ==\n\n";

    const std::vector<std::string> apps = {"YouTube", "WebBrowsing",
                                           "Twitter"};
    const std::vector<sim::Time> thresholds = {
        sim::milliseconds(50), sim::milliseconds(200),
        sim::milliseconds(1000), sim::milliseconds(5000)};

    std::vector<trace::Trace> traces;
    traces.reserve(apps.size());
    for (const std::string &app : apps)
        traces.push_back(bench::makeAppTrace(app, scale));

    // CaseResult does not carry power stats, so the cells go through
    // runOrdered directly with a purpose-built row struct.
    const std::size_t cells = apps.size() * thresholds.size();
    const std::vector<PowerCell> rows = core::runOrdered(
        cells, args.jobs, [&](std::size_t i) {
            const trace::Trace &t = traces[i / thresholds.size()];
            const sim::Time threshold =
                thresholds[i % thresholds.size()];
            sim::Simulator s;
            emmc::EmmcConfig cfg =
                core::schemeConfig(core::SchemeKind::PS4);
            cfg.power.enabled = true;
            cfg.power.idleThreshold = threshold;
            auto dev = core::makeDevice(s, core::SchemeKind::PS4, cfg);
            host::Replayer rep(s, *dev);
            rep.replay(t);

            const emmc::PowerStats &ps = dev->powerStats();
            PowerCell cell;
            cell.mrtMs = dev->stats().responseMs.mean();
            cell.wakeups = ps.wakeups;
            cell.lowPowerPct =
                ps.lowPowerTime + ps.activeTime > 0
                    ? 100.0 * static_cast<double>(ps.lowPowerTime) /
                          static_cast<double>(ps.lowPowerTime +
                                              ps.activeTime)
                    : 0.0;
            return cell;
        });

    core::TablePrinter table({"Workload", "Threshold (ms)", "MRT (ms)",
                              "Wakeups", "Low-power residency (%)"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        table.addRow(
            {apps[i / thresholds.size()],
             core::fmt(
                 sim::toMilliseconds(thresholds[i % thresholds.size()]),
                 0),
             core::fmt(rows[i].mrtMs), core::fmt(rows[i].wakeups),
             core::fmt(rows[i].lowPowerPct, 1)});
    }
    table.print(std::cout);

    std::cout << "\nExpected: shorter thresholds raise low-power "
                 "residency (energy savings) but add wake-up latency "
                 "to more requests, inflating MRT for sparse apps — "
                 "the mode-switching cost the paper observes.\n";
    return 0;
}
