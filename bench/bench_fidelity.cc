/**
 * @file
 * The paper's Section III and V results from one program: Fig 3,
 * Tables III-V (with Fig 10), Figs 4-9, Characteristics 1-6 and the
 * paper claims they reproduce.
 *
 * Usage: bench_fidelity [scale] [--jobs=N] [--figure=NAME]
 *
 * One core::runCases call replays the 25 traces (bench::kBenchSeed) on
 * the power-mode 4PS device and the 18 individual ones on 4PS, 8PS and
 * HPS; core::runOrdered runs the Fig 3 streams. Every number is a Row,
 * and each artifact prints as one table pivoted subject x column. A
 * row may carry the paper's value and a band [lo, hi], the only kind
 * of check: a tolerance, an ordering (a difference row, lo = 0) or a
 * count (lo = hi). A gap row has a paper value and no band: the repo
 * does not reproduce it. Bands are checked only at scale 1, the
 * paper's request counts, where a failing band exits 1. --figure=NAME
 * prints the artifacts whose name starts with NAME, or the claims.
 * Tables I and II are `emmcsim_cli list`.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>

#include "analysis/characteristics.hh"
#include "analysis/correlation.hh"
#include "analysis/distributions.hh"
#include "analysis/size_stats.hh"
#include "analysis/throughput.hh"
#include "analysis/timing_stats.hh"
#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scheme.hh"
#include "core/sweep.hh"
#include "emmc/device.hh"
#include "host/replayer.hh"
#include "workload/fixed.hh"

using namespace emmcsim;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Band half-width around a single paper value, relative: the goal is
 * shape-level agreement on a simulator, not the authors' phone. */
constexpr double kTolerance = 0.10;

struct Band
{
    double lo = 0.0;
    double hi = 0.0;
};

/** The paper side of a row; empty for a plain measurement. */
struct Claim
{
    std::optional<double> paper;
    std::optional<Band> band; ///< none on a gap row
    std::string source;       ///< the paper text both come from
};

Claim
near(double paper, std::string source)
{
    return {paper, Band{paper * (1 - kTolerance), paper * (1 + kTolerance)},
            std::move(source)};
}

Claim
exactly(double paper, std::string source)
{
    return {paper, Band{paper, paper}, std::move(source)};
}

Claim
ordered(std::string source)
{
    return {std::nullopt, Band{0.0, kInf}, std::move(source)};
}

Claim
gap(double paper, std::string source)
{
    return {paper, std::nullopt, std::move(source)};
}

/** One number of one artifact. */
struct Row
{
    std::string artifact;
    std::string subject;
    std::string column;
    double measured = 0.0;
    int digits = 2;
    Claim claim;
};

/** Appends the rows of one artifact. */
struct RowSink
{
    std::vector<Row> &rows;
    std::string artifact;

    void
    operator()(std::string subject, std::string column, double measured,
               int digits, Claim claim = {}) const
    {
        rows.push_back({artifact, std::move(subject), std::move(column),
                        measured, digits, std::move(claim)});
    }
};

struct Artifact
{
    const char *name;
    const char *subjectHeader;
    const char *title;
    bool scaled; ///< depends on the trace scale
};

constexpr Artifact kArtifacts[] = {
    {"fig3", "Req size", "Fig 3: throughput (MB/s) on 4PS, packing on",
     false},
    {"table3", "Application", "Table III: request size statistics", true},
    {"fig4", "Application", "Fig 4: request sizes (% of requests)", true},
    {"table4", "Application", "Table IV: timing statistics (4PS, power "
                              "mode on)", true},
    {"fig5", "Application", "Fig 5: response times (% of requests)", true},
    {"fig6", "Application", "Fig 6: inter-arrival times (% of gaps)", true},
    {"fig7a", "Combo", "Fig 7a: combo request sizes (%)", true},
    {"fig7b", "Combo", "Fig 7b: combo response times (%)", true},
    {"fig7c", "Combo", "Fig 7c: combo inter-arrival times (%)", true},
    {"chars", "Characteristic", "Characteristics 1-6 (18 traces)", true},
    {"table5", "Parameter", "Table V and Fig 10: the three devices", false},
    {"fig8", "Application", "Fig 8: MRT (ms), RAM buffer off; Fig 8b: "
                            "Booting, CameraVideo, Amazon, Installing",
     true},
    {"fig9", "Application", "Fig 9: space utilization vs 4PS", true},
};

using Series = std::vector<std::pair<std::string, double>>;

/** The (subject, measured) pairs of one artifact column, in order. */
Series
column(const std::vector<Row> &rows, const std::string &artifact,
       const std::string &col)
{
    Series s;
    for (const Row &r : rows) {
        if (r.artifact == artifact && r.column == col)
            s.emplace_back(r.subject, r.measured);
    }
    return s;
}

/** The largest (or smallest) value of @p s, skipping @p skip. */
double
extreme(const Series &s, bool highest, const std::string &skip = "")
{
    double best = highest ? -kInf : kInf;
    for (const auto &[subject, v] : s) {
        if (subject != skip)
            best = highest ? std::max(best, v) : std::min(best, v);
    }
    return best;
}

double
mean(const Series &s)
{
    double sum = 0.0;
    for (const auto &nv : s)
        sum += nv.second;
    return sum / static_cast<double>(s.size());
}

/** The entries of @p s that @p keep accepts. */
template <typename Keep>
Series
where(Series s, Keep keep)
{
    std::erase_if(s, [&](const auto &e) { return !keep(e); });
    return s;
}

/** Index of the row at (@p subject, @p col) of @p artifact, or size. */
std::size_t
rowIndex(const std::vector<Row> &rows, const std::string &artifact,
         const std::string &subject, const std::string &col)
{
    std::size_t i = 0;
    while (i < rows.size() &&
           (rows[i].artifact != artifact || rows[i].subject != subject ||
            rows[i].column != col))
        ++i;
    return i;
}

/**
 * Fig 3: replay fixed-size sequential streams on the 4PS device and
 * take the mean per-request throughput (size / service time), the
 * paper's "average access rate of requests with that size". Arrivals
 * are spaced so service times are queue-free; writes above the 512KB
 * Linux limit model already-packed commands. Reads stop at 256KB, the
 * largest read in the traces.
 */
void
addFig3(std::vector<Row> &rows, unsigned jobs)
{
    std::vector<workload::FixedStreamSpec> specs;
    for (std::uint64_t size = 4 * sim::kKiB; size <= 16 * sim::kMiB;
         size *= 2) {
        for (bool write : {false, true}) {
            if (write || size <= 256 * sim::kKiB) {
                workload::FixedStreamSpec &spec = specs.emplace_back();
                spec.name = write ? "seq-write" : "seq-read";
                spec.write = write;
                spec.sizeBytes = size;
                // Fixed volume (64MB) per point.
                spec.count =
                    std::max<std::uint64_t>(4, 64 * sim::kMiB / size);
                spec.gap = sim::seconds(4);
            }
        }
    }
    const std::vector<double> mbps =
        core::runOrdered(specs.size(), jobs, [&](std::size_t i) {
            sim::Simulator s;
            auto dev = core::makeDevice(s, core::SchemeKind::PS4);
            host::Replayer rep(s, *dev);
            return analysis::meanRequestThroughputMBps(
                rep.replay(workload::makeFixedStream(specs[i])),
                specs[i].write);
        });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t size = specs[i].sizeBytes;
        RowSink{rows, "fig3"}(
            size < sim::kMiB ? core::fmt(size / sim::kKiB) + "KB"
                             : core::fmt(size / sim::kMiB) + "MB",
            specs[i].write ? "Write MB/s" : "Read MB/s", mbps[i], 2);
    }
}

/** Appends @p h's buckets as percentages under @p labels. */
void
addHistogram(const RowSink &sink, const std::string &subject,
             const std::vector<std::string> &labels, const sim::Histogram &h)
{
    for (std::size_t b = 0; b < h.bucketCount(); ++b)
        sink(subject, labels[b], 100.0 * h.fractionAt(b), 1);
}

/** Table III, Table IV and Figs 4-7 of one trace; @p res is its replay
 * on the power-mode 4PS device. */
void
addTraceRows(std::vector<Row> &rows, const std::string &name, bool combo,
             const trace::Trace &t, const core::CaseResult &res)
{
    const analysis::SizeStats s = analysis::computeSizeStats(t);
    const RowSink table3{rows, "table3"};
    table3(name, "Data Size (KB)", s.dataSizeKb, 0);
    table3(name, "Number of Reqs.", static_cast<double>(s.requests), 0);
    table3(name, "Max Size (KB)", s.maxSizeKb, 0);
    table3(name, "Ave. Size (KB)", s.aveSizeKb, 1);
    table3(name, "Ave. R Size (KB)", s.aveReadKb, 1);
    table3(name, "Ave. W Size (KB)", s.aveWriteKb, 1);
    table3(name, "Write Reqs. Pct.(%)", s.writeReqPct, 2);
    table3(name, "Write Size Pct.(%)", s.writeSizePct, 2);

    const analysis::TimingStats ts =
        analysis::computeTimingStats(res.replayed);
    const RowSink table4{rows, "table4"};
    table4(name, "Recording Duration (s)", ts.durationSec, 0);
    table4(name, "Arrival Rate (Reqs/s)", ts.arrivalRate, 2);
    table4(name, "Access Rate (KB/s)", ts.accessRateKbps, 2);
    table4(name, "NoWait Req. Ratio (%)", ts.noWaitPct, 0);
    table4(name, "Mean Serv. (ms)", ts.meanServiceMs, 2);
    table4(name, "Mean Resp. (ms)", ts.meanResponseMs, 2);
    table4(name, "Spatial Locality (%)", ts.spatialPct, 2);
    table4(name, "Temporal Locality (%)", ts.temporalPct, 2);

    addHistogram(RowSink{rows, combo ? "fig7a" : "fig4"}, name,
                 analysis::sizeBucketLabels(), analysis::sizeDistribution(t));
    const RowSink resp{rows, combo ? "fig7b" : "fig5"};
    addHistogram(resp, name, analysis::responseBucketLabels(),
                 analysis::responseDistribution(res.replayed));
    if (!combo)
        resp(name, "corr(size,resp)",
             analysis::sizeResponseCorrelation(res.replayed), 2);
    const RowSink gaps{rows, combo ? "fig7c" : "fig6"};
    addHistogram(gaps, name, analysis::interArrivalBucketLabels(),
                 analysis::interArrivalDistribution(t));
    gaps(name, "Mean gap (ms)",
         analysis::computeTimingStats(t).meanInterArrivalMs, 1);
}

/** Table V and Fig 10: the three devices; pool rows follow the
 * device-wide ones, and "-" marks a page size a scheme lacks. */
void
addTable5(std::vector<Row> &rows)
{
    const RowSink table5{rows, "table5"};
    const auto us = [](sim::Time t) { return sim::toMicroseconds(t); };
    for (core::SchemeKind k : core::allSchemes()) {
        const emmc::EmmcConfig c = core::schemeConfig(k);
        const flash::Geometry &g = c.geometry;
        const std::string s = core::schemeName(k);
        table5("Block erase (us)", s, us(c.timing.eraseLatency), 0);
        table5("Channels", s, g.channels, 0);
        table5("Chips per channel", s, g.chipsPerChannel, 0);
        table5("Dies per chip", s, g.diesPerChip, 0);
        table5("Planes per die", s, g.planesPerDie, 0);
        table5("Pages per block", s, g.pagesPerBlock, 0);
        table5("Capacity (GB)", s,
               static_cast<double>(g.capacityBytes().value() / sim::kGiB),
               0);
        for (std::size_t i = 0; i < g.pools.size(); ++i) {
            const flash::PoolConfig &p = g.pools[i];
            const std::string kb =
                core::fmt(std::uint64_t{p.pageBytes / 1024}) + "KB-page ";
            table5(kb + "read (us)", s,
                   us(c.timing.pools[i].readLatency), 0);
            table5(kb + "write (us)", s,
                   us(c.timing.pools[i].programLatency), 0);
            table5(kb + "blocks per plane", s, p.blocksPerPlane, 0);
            table5(kb + "MB per plane", s,
                   static_cast<double>(g.blockBytes(i).value() *
                                       p.blocksPerPlane / sim::kMiB),
                   0);
        }
    }
}

/** Figs 8 and 9 of one trace from its 4PS, 8PS and HPS replays. */
void
addSchemeRows(std::vector<Row> &rows, const std::string &name,
              const core::CaseResult *r)
{
    const RowSink fig8{rows, "fig8"};
    const RowSink fig9{rows, "fig9"};
    double util[3];
    for (std::size_t k = 0; k < 3; ++k) {
        const std::string scheme = core::schemeName(core::allSchemes()[k]);
        util[k] = r[k].spaceUtilization / r[0].spaceUtilization;
        fig8(name, scheme, r[k].meanResponseMs, 2);
        fig9(name, scheme, util[k], 3);
    }
    fig8(name, "HPS vs 4PS (%)",
         100.0 * (r[0].meanResponseMs - r[2].meanResponseMs) /
             r[0].meanResponseMs,
         1);
    fig9(name, "HPS vs 8PS (%)", 100.0 * (util[2] - util[1]) / util[1], 1);
}

/**
 * The paper's claims, each citing the paper text it checks. A claim on
 * one cell attaches to its row; the others add summary rows (extremes,
 * means, counts, differences) computed from the rows. @p chars
 * evaluates C1-C6 over the 18 power-mode replays.
 */
void
addClaims(std::vector<Row> &rows,
          const analysis::CharacteristicsReport &chars)
{
    const auto at = [&](const std::string &artifact,
                        const std::string &subject,
                        const std::string &col) -> Row & {
        const std::size_t i = rowIndex(rows, artifact, subject, col);
        if (i == rows.size())
            sim::panic("bench_fidelity: no row " + artifact + "/" + subject);
        return rows[i];
    };
    const auto n = [](std::size_t v) { return static_cast<double>(v); };
    const auto named = [](const char *prefix) {
        return [=](const auto &e) { return e.first.rfind(prefix, 0) == 0; };
    };

    at("fig3", "4KB", "Read MB/s").claim =
        near(13.94, "paper Fig 3: 4KB reads at 13.94 MB/s");
    at("fig3", "256KB", "Read MB/s").claim =
        near(99.65, "paper Fig 3: reads reach 99.65 MB/s");
    at("fig3", "4KB", "Write MB/s").claim =
        gap(5.18, "paper Fig 3: 4KB writes at 5.18 MB/s");
    at("fig3", "16MB", "Write MB/s").claim =
        gap(56.15, "paper Fig 3: writes reach 56.15 MB/s");

    const Series small = where(column(rows, "fig4", "<=4KB"),
                               [](const auto &e) { return e.second > 40; });
    const std::string c2 = "paper C2: 44.9%-57.4% of requests are 4KB in "
                           "the small-request traces";
    RowSink{rows, "fig4"}("min of C2 traces", "<=4KB",
                          extreme(small, false), 1,
                          {44.9, Band{44.9, 57.4}, c2});
    RowSink{rows, "fig4"}("max of C2 traces", "<=4KB", extreme(small, true),
                          1, {57.4, Band{44.9, 57.4}, c2});
    at("fig5", "Movie", "4-8ms").claim =
        gap(70.0, "paper Fig 5: nearly 70% of Movie's requests take "
                  "4 ms to 8 ms");

    const Series combo_small = column(rows, "fig7a", "<=4KB");
    RowSink{rows, "fig7a"}(
        "Music min - Radio max", "<=4KB",
        extreme(where(combo_small, named("Music/")), false) -
            extreme(where(combo_small, named("Radio/")), true),
        1, ordered("paper Fig 7a: Music combos show more 4KB requests "
                   "than Radio combos"));
    const auto mrt = [&](const std::string &app) {
        return at("table4", app, "Mean Resp. (ms)").measured;
    };
    RowSink{rows, "fig7b"}(
        "slower part - Music/WB", "MRT (ms)",
        std::max(mrt("Music"), mrt("WebBrowsing")) - mrt("Music/WB"), 2,
        {5.20 - 3.61, Band{0.0, kInf},
         "paper Sec III-D: Music/WB 3.61 ms vs Music 3.45, WebBrowsing "
         "5.20 ms"});
    const Series combo_gap = column(rows, "fig7c", "Mean gap (ms)");
    const std::string c7 = "paper Fig 7c: combo mean inter-arrivals range "
                           "44.8-164 ms";
    RowSink{rows, "fig7c"}("min", "Mean gap (ms)", extreme(combo_gap, false),
                           1, {44.8, Band{44.8, 164.0}, c7});
    RowSink{rows, "fig7c"}("max", "Mean gap (ms)", extreme(combo_gap, true),
                           1, gap(164.0, c7));

    const RowSink c{rows, "chars"};
    c("C1 write requests > 50%", "Traces", n(chars.writeDominant), 0,
      exactly(15, "paper C1: 15 of 18 traces are write-dominant"));
    c("C1 write requests > 90%", "Traces", n(chars.writeAbove90), 0,
      exactly(6, "paper C1: 6 traces above 90% writes"));
    c("C2 4KB requests > 40%", "Traces", n(chars.smallMajority), 0,
      gap(15, "paper C2: 15 of 18 traces are small-request dominated"));
    c("C3 NoWait >= 63%", "Traces", n(chars.highNoWait), 0,
      gap(15, "paper C3: >=63% NoWait in 15 of 18 traces, >80% in 10"));
    c("C5 spatial locality < 48%", "Traces", n(chars.weakSpatial), 0,
      exactly(18, "paper C5: spatial locality below 48% in all traces"));
    c("C5 temporal >= spatial", "Traces", n(chars.temporalAboveSpatial),
      0);
    c("C6 mean gap >= 200 ms", "Traces", n(chars.longMeanGap), 0,
      exactly(13, "paper C6: 13 of 18 traces have a mean gap >= 200 ms"));
    c("C6 >20% of gaps > 16 ms", "Traces", n(chars.heavyGapTail), 0,
      gap(10, "paper C6: 10 of 18 traces have >20% of gaps above 16 ms"));

    for (core::SchemeKind k : core::allSchemes())
        at("table5", "Capacity (GB)", core::schemeName(k)).claim =
            exactly(32, "paper Table V: 32 GB on every device");

    const std::string red = "HPS vs 4PS (%)";
    const Series gain8 = column(rows, "fig8", red);
    const Series m4 = column(rows, "fig8", "4PS");
    const Series m8 = column(rows, "fig8", "8PS");
    const Series mh = column(rows, "fig8", "HPS");
    std::size_t nearer = 0;
    for (std::size_t i = 0; i < m4.size(); ++i)
        nearer += std::abs(m8[i].second - mh[i].second) <
                  std::abs(m8[i].second - m4[i].second);
    const auto fig8b = [](const auto &e) {
        return e.first == "Booting" || e.first == "CameraVideo" ||
               e.first == "Amazon" || e.first == "Installing";
    };
    const RowSink fig8{rows, "fig8"};
    fig8("best", red, extreme(gain8, true), 1,
         near(86.0, "paper Fig 8: best reduction 86% (Booting)"));
    fig8("Booting - next best", red,
         at("fig8", "Booting", red).measured -
             extreme(gain8, true, "Booting"),
         1, ordered("paper Fig 8: best reduction on Booting"));
    fig8("worst", red, extreme(gain8, false), 1,
         gap(24.0, "paper Fig 8: worst reduction 24% (Movie)"));
    fig8("next worst - Movie", red,
         extreme(gain8, false, "Movie") - at("fig8", "Movie", red).measured,
         1, ordered("paper Fig 8: worst reduction on Movie"));
    fig8("average", red, mean(gain8), 1,
         gap(61.9, "paper Fig 8: average reduction 61.9%"));
    fig8("HPS below 4PS (traces)", "HPS",
         n(where(gain8, [](const auto &e) { return e.second > 0; }).size()),
         0, exactly(18, "paper Fig 8: HPS beats 4PS on all 18 traces"));
    fig8("8PS nearer HPS (traces)", "8PS", n(nearer), 0,
         exactly(18, "paper Fig 8: 8PS performs very similar to HPS"));
    fig8("Fig 8b min - Fig 8a max", "4PS",
         extreme(where(m4, fig8b), false) -
             extreme(where(m4, std::not_fn(fig8b)), true),
         2, ordered("paper Fig 8b: Booting, CameraVideo, Amazon and "
                    "Installing have the highest MRTs"));

    const std::string inc = "HPS vs 8PS (%)";
    const Series gain9 = column(rows, "fig9", inc);
    const RowSink fig9{rows, "fig9"};
    fig9("best", inc, extreme(gain9, true), 1,
         gap(24.2, "paper Fig 9: best gain +24.2% (Music)"));
    fig9("Music - next best", inc,
         at("fig9", "Music", inc).measured - extreme(gain9, true, "Music"),
         1, ordered("paper Fig 9: best gain on Music"));
    fig9("average", inc, mean(gain9), 1,
         near(13.1, "paper Fig 9: average gain +13.1%"));
    fig9("HPS equals 4PS (traces)", "HPS",
         n(where(column(rows, "fig9", "HPS"), [](const auto &e) {
               return e.second == 1.0;
           }).size()),
         0, exactly(18, "paper Fig 9: HPS uses space as fully as 4PS"));
}

/** Print @p a's rows pivoted subject x column ("-" marks no value). */
void
printArtifact(const Artifact &a, const std::vector<Row> &rows, double scale)
{
    std::vector<std::string> subjects;
    std::vector<std::string> headers = {a.subjectHeader};
    const auto add = [](std::vector<std::string> &v, const std::string &x) {
        if (std::find(v.begin(), v.end(), x) == v.end())
            v.push_back(x);
    };
    for (const Row &r : rows) {
        if (r.artifact == a.name) {
            add(subjects, r.subject);
            add(headers, r.column);
        }
    }
    std::vector<std::vector<std::string>> cells;
    for (const std::string &s : subjects) {
        cells.push_back({s});
        for (std::size_t c = 1; c < headers.size(); ++c) {
            const std::size_t i = rowIndex(rows, a.name, s, headers[c]);
            cells.back().push_back(i == rows.size()
                                       ? "-"
                                       : core::fmt(rows[i].measured,
                                                   rows[i].digits));
        }
    }
    core::TablePrinter table(std::move(headers));
    for (std::vector<std::string> &row : cells)
        table.addRow(std::move(row));
    std::cout << "== " << a.title;
    if (a.scaled)
        std::cout << " (scale " << scale << ")";
    std::cout << " ==\n\n";
    table.print(std::cout);
    std::cout << "\n";
}

bool
inBand(const Row &r)
{
    return r.measured >= r.claim.band->lo && r.measured <= r.claim.band->hi;
}

/** Every row with a paper value or a band, in artifact order. */
void
printClaims(const std::vector<Row> &rows, double scale, bool verdicts)
{
    std::vector<std::string> headers = {"Artifact", "Subject", "Column",
                                        "Paper",    "Measured", "Band"};
    if (verdicts)
        headers.push_back("Verdict");
    headers.push_back("Source");
    core::TablePrinter table(std::move(headers));
    std::map<std::string, std::size_t> tally; // by verdict
    for (const Artifact &a : kArtifacts) {
        for (const Row &r : rows) {
            const Claim &c = r.claim;
            if (r.artifact != a.name || (!c.paper && !c.band))
                continue;
            const auto num = [&](double v) { return core::fmt(v, r.digits); };
            std::string band = "-";
            if (c.band)
                band = std::string("[") + num(c.band->lo) + ", " +
                       num(c.band->hi) + "]";
            std::vector<std::string> cells = {
                r.artifact, r.subject, r.column,
                c.paper ? num(*c.paper) : "-", num(r.measured), band};
            if (verdicts) {
                const char *v = !c.band ? "gap" : inBand(r) ? "pass" : "FAIL";
                ++tally[v];
                cells.push_back(v);
            }
            cells.push_back(c.source);
            table.addRow(std::move(cells));
        }
    }
    std::cout << "== Paper claims (scale " << scale << ") ==\n\n";
    table.print(std::cout);
    if (verdicts)
        std::cout << "\n" << tally["pass"] << " pass, " << tally["FAIL"]
                  << " fail, " << tally["gap"]
                  << " gaps (paper values without a band)\n";
    else
        std::cout << "\n(bands are checked only at scale 1)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 1.0, bench::kJobsFlag | bench::kFigureFlag);
    const auto selected = [&](const std::string &name) {
        return args.figure.empty() || name.rfind(args.figure, 0) == 0;
    };
    if (!selected("claims") &&
        std::none_of(std::begin(kArtifacts), std::end(kArtifacts),
                     [&](const Artifact &a) { return selected(a.name); }))
        sim::fatal("unknown --figure: " + args.figure);

    const std::vector<workload::AppProfile> profiles =
        workload::allProfiles();
    const std::size_t individuals = workload::individualProfiles().size();
    std::vector<trace::Trace> traces;
    for (const workload::AppProfile &p : profiles)
        traces.push_back(bench::makeAppTrace(p.name, args.scale));

    // Cases [0, 25): every trace on the 4PS device with power mode on,
    // as the real device sleeps between requests. Then the individual
    // traces on 4PS, 8PS and HPS, three cases per trace.
    std::vector<core::SweepCase> cases;
    core::ExperimentOptions power;
    power.powerMode = true;
    for (std::size_t i = 0; i < profiles.size(); ++i)
        cases.push_back({profiles[i].name + "/4PS-power", &traces[i],
                         core::SchemeKind::PS4, power});
    for (std::size_t i = 0; i < individuals; ++i) {
        for (core::SchemeKind kind : core::allSchemes())
            cases.push_back({profiles[i].name + "/" + core::schemeName(kind),
                             &traces[i], kind, {}});
    }
    const std::vector<core::CaseResult> results =
        core::runCases(cases, args.jobs);

    std::vector<Row> rows;
    addFig3(rows, args.jobs);
    std::vector<trace::Trace> replayed;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        addTraceRows(rows, profiles[i].name, i >= individuals, traces[i],
                     results[i]);
        if (i < individuals)
            replayed.push_back(results[i].replayed);
    }
    addTable5(rows);
    for (std::size_t i = 0; i < individuals; ++i)
        addSchemeRows(rows, profiles[i].name,
                      &results[profiles.size() + 3 * i]);
    addClaims(rows, analysis::evaluateCharacteristics(replayed));

    for (const Artifact &a : kArtifacts) {
        if (selected(a.name))
            printArtifact(a, rows, args.scale);
    }
    const bool verdicts = args.scale == 1.0;
    if (selected("claims"))
        printClaims(rows, args.scale, verdicts);
    const auto failed = std::count_if(rows.begin(), rows.end(), [](auto &r) {
        return r.claim.band && !inBand(r);
    });
    if (verdicts && failed > 0) {
        std::cerr << "bench_fidelity: " << failed
                  << " paper claims fail at scale 1\n";
        return 1;
    }
    return 0;
}
