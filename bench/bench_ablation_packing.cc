/**
 * @file
 * Ablation A4 (Implication 1 / Fig 3): packed write commands and
 * multi-plane parallelism versus large-request throughput.
 */

#include <iostream>

#include "analysis/throughput.hh"
#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "host/replayer.hh"
#include "workload/fixed.hh"

using namespace emmcsim;

namespace {

double
throughput(std::uint64_t req_bytes, bool packing, bool multiplane)
{
    sim::Simulator s;
    emmc::EmmcConfig cfg = core::schemeConfig(core::SchemeKind::PS4);
    cfg.packing.enabled = packing;
    cfg.multiplane = multiplane;
    auto dev = core::makeDevice(s, core::SchemeKind::PS4, cfg);

    workload::FixedStreamSpec spec;
    spec.write = true;
    spec.sizeBytes = req_bytes;
    spec.count = std::max<std::uint64_t>(8, (32 * sim::kMiB) / req_bytes);
    spec.gap = 0;
    host::Replayer rep(s, *dev);
    trace::Trace out = rep.replay(workload::makeFixedStream(spec));
    return analysis::sustainedThroughputMBps(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, 1.0, bench::kJobsFlag);
    std::cout << "== Ablation A4: packing and multi-plane commands vs "
                 "write throughput (Implication 1 / Fig 3) ==\n\n";

    // Each table cell is an independent fixed-stream replay; fan the
    // 5x4 matrix out over the sweep pool and print in cell order.
    const std::vector<std::uint64_t> sizes_kb = {4, 16, 64, 256, 1024};
    const std::vector<std::pair<bool, bool>> modes = {
        {false, false}, {true, false}, {false, true}, {true, true}};
    const std::size_t cells = sizes_kb.size() * modes.size();
    const std::vector<double> tp = core::runOrdered(
        cells, args.jobs, [&](std::size_t i) {
            const std::uint64_t bytes =
                sizes_kb[i / modes.size()] * sim::kKiB;
            const auto &[packing, multiplane] = modes[i % modes.size()];
            return throughput(bytes, packing, multiplane);
        });

    core::TablePrinter table({"Req size", "base MB/s", "+packing",
                              "+multiplane", "+both"});
    for (std::size_t r = 0; r < sizes_kb.size(); ++r) {
        const std::size_t base = r * modes.size();
        table.addRow({core::fmt(std::uint64_t{sizes_kb[r]}) + "KB",
                      core::fmt(tp[base]), core::fmt(tp[base + 1]),
                      core::fmt(tp[base + 2]), core::fmt(tp[base + 3])});
    }
    table.print(std::cout);

    std::cout << "\nExpected: packing amortizes per-command overhead "
                 "(largest effect on small bursty writes); multi-plane "
                 "commands raise array-side parallelism. The paper's "
                 "eMMC supports packing but little parallelism "
                 "(Implication 1: requests split into more than ~2 "
                 "sub-requests cannot proceed fully in parallel).\n";
    return 0;
}
