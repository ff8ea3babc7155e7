/**
 * @file
 * Extension E2: the endurance side of the Section V argument.
 *
 * "When the two eMMC devices have the same total capacity the
 * 8KB-page-size eMMC has a much fewer number of pages ... it will
 * have more garbage collection operations after its limited number of
 * free pages are quickly consumed by the small random write requests.
 * More GC operations further lowers the performance and shrinks the
 * lifetime of the device."
 *
 * We stream random single-page (4KB) writes — the paper's dominant
 * request class — through a shrunken device of each scheme until the
 * volume written is several times the raw capacity, and report the
 * erase counts, write amplification, and wear spread.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "sim/random.hh"
#include "workload/fixed.hh"

using namespace emmcsim;

int
main(int argc, char **argv)
{
    const double volume_x = bench::parseBenchArgs(argc, argv, 2.0).scale;
    std::cout << "== Extension E2: GC and endurance under small random "
                 "writes (" << volume_x
              << "x raw capacity written) ==\n\n";

    // ~512MB devices; the write footprint fits every pool. The
    // stream mixes 4KB and 8KB random writes 2:1 (equal bytes in each
    // size class, matching the HPS pools' 50/50 capacity split).
    const double cap_scale = 1.0 / 64.0;
    const std::uint64_t raw_bytes =
        static_cast<std::uint64_t>(32.0 * cap_scale * 1024.0) *
        sim::kMiB;
    const auto total_units = static_cast<std::uint64_t>(
        volume_x * static_cast<double>(raw_bytes) / 4096.0);

    sim::Rng rng(7);
    trace::Trace t("rand-small-write");
    const std::int64_t kRegionUnits = 12 * 1024; // 48MB per class
    sim::Time now = 0;
    std::uint64_t written_units = 0;
    for (std::uint64_t i = 0; written_units < total_units; ++i) {
        trace::TraceRecord r;
        r.arrival = now;
        r.op = trace::OpType::Write;
        if (i % 3 != 2) { // two 4KB writes ...
            r.sizeBytes = units::Bytes{sim::kib(4)};
            r.lbaSector = units::unitToLba(units::UnitAddr{
                rng.uniformInt(0, kRegionUnits - 1)});
            written_units += 1;
        } else { // ... then one aligned 8KB write
            r.sizeBytes = units::Bytes{sim::kib(8)};
            r.lbaSector = units::unitToLba(units::UnitAddr{
                kRegionUnits +
                2 * rng.uniformInt(0, kRegionUnits / 2 - 1)});
            written_units += 2;
        }
        t.push(r);
        now += sim::microseconds(500);
    }

    core::TablePrinter table({"Scheme", "Host writes", "Block erases",
                              "Write amplification", "Wear spread",
                              "GC rounds", "MRT (ms)"});
    for (core::SchemeKind kind : core::allSchemes()) {
        core::ExperimentOptions opts;
        opts.capacityScale = cap_scale;
        core::CaseResult res = core::runCase(t, kind, opts);
        table.addRow({res.scheme, core::fmt(res.requests),
                      core::fmt(res.totalErases),
                      core::fmt(res.writeAmplification, 2),
                      core::fmt(std::uint64_t{res.wearSpread}),
                      core::fmt(res.gcBlockingRounds),
                      core::fmt(res.meanResponseMs)});
    }
    table.print(std::cout);

    std::cout << "\nReading the table: 8PS pads every 4KB write into "
                 "an 8KB page (write amplification ~1.5x on this mix), "
                 "so its free pages drain faster and it erases more "
                 "blocks than 4PS for the same host volume — the "
                 "lifetime cost the paper charges against a pure "
                 "large-page design. HPS is best of all: no padding, "
                 "and its 8KB blocks reclaim twice the data per "
                 "erase. The tiny wear spread everywhere is the "
                 "simple min-erase wear leveler (Implication 4) "
                 "sufficing.\n";
    return 0;
}
