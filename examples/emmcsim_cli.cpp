/**
 * @file
 * emmcsim_cli: command-line front end to the library.
 *
 * Subcommands:
 *   list                               show the 25 built-in profiles
 *   generate <app> <out> [scale] [seed]  write a trace file
 *   analyze <trace-file>               Table III/IV-style report
 *   replay <trace-file> [scheme] [--audit [N]]
 *                                      replay on 4PS/8PS/HPS/HSLC,
 *                                      print the measured metrics;
 *                                      --audit runs full invariant
 *                                      audits every N events (default
 *                                      10000) and reports the outcome
 *   compare <app> [scale]              run the Fig 8/9 comparison
 *   sweep [app ...] [--schemes=L] [--ablate=L] [--jobs=N] ...
 *                                      fan out app x scheme x ablation
 *                                      replays over worker threads
 *   snapshot <trace> <image> [scheme] --at=NS
 *                                      replay until the first quiescent
 *                                      point at/after NS and write a
 *                                      resumable device image
 *   restore <trace> <image> [scheme]   resume a snapshot to completion
 *                                      (same options as the capture)
 *   explain <report.json>              attribute run latency to phases
 *                                      (needs a report written with
 *                                      --attribution)
 *   diff <a.json> <b.json>             attribute the response-time
 *                                      change between two reports to
 *                                      the phases that moved
 *   ingest <format> <in> <out>         import a foreign block trace
 *                                      (blktrace, biosnoop, alibaba,
 *                                      tencent, emmctrace) and write it
 *                                      normalized as emmctrace-bin v1
 *   trace-info <file>                  header + streamed statistics of
 *                                      a text or binary trace
 *
 * replay also accepts --spo-at=NS[,NS...] / --spo-random=N,seed to cut
 * device power mid-run and drive the FTL recovery path. A replay of an
 * emmctrace-bin file streams it chunk by chunk (bounded memory for
 * multi-GB traces); --spo-random / --trace-csv / snapshot / restore
 * need a text trace.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/distributions.hh"
#include "check/audit.hh"
#include "sim/logging.hh"
#include "analysis/size_stats.hh"
#include "analysis/timing_stats.hh"
#include "core/cli_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "fault/spo.hh"
#include "host/replayer.hh"
#include "obs/explain.hh"
#include "obs/json_read.hh"
#include "obs/report.hh"
#include "trace/binfmt.hh"
#include "trace/ingest/ingest.hh"
#include "trace/source.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

namespace {

int
cmdList()
{
    core::TablePrinter table(
        {"Name", "Requests", "Duration (s)", "Write %", "Description"});
    for (const workload::AppProfile &p : workload::allProfiles()) {
        table.addRow({p.name, core::fmt(p.requestCount),
                      core::fmt(sim::toSeconds(p.duration), 0),
                      core::fmt(100.0 * p.writeFraction, 1),
                      p.description});
    }
    table.print(std::cout);
    return 0;
}

int
cmdGenerate(const std::string &app, const std::string &out,
            double scale, std::uint64_t seed)
{
    const workload::AppProfile *p = workload::findProfile(app);
    if (p == nullptr) {
        std::cerr << "unknown application: " << app << "\n";
        return 1;
    }
    workload::TraceGenerator gen(*p, seed);
    trace::Trace t = gen.generate(scale);
    t.saveFile(out);
    std::cout << "wrote " << t.size() << " requests ("
              << t.totalBytes() / 1024 << " KB) to " << out << "\n";
    return 0;
}

void
printStats(const trace::Trace &t)
{
    analysis::SizeStats ss = analysis::computeSizeStats(t);
    analysis::TimingStats ts = analysis::computeTimingStats(t);
    core::TablePrinter table({"Metric", "Value"});
    table.addRow({"Requests", core::fmt(ss.requests)});
    table.addRow({"Data size (KB)", core::fmt(ss.dataSizeKb, 0)});
    table.addRow({"Ave size (KB)", core::fmt(ss.aveSizeKb, 1)});
    table.addRow({"Write requests (%)", core::fmt(ss.writeReqPct, 2)});
    table.addRow({"Duration (s)", core::fmt(ts.durationSec, 1)});
    table.addRow({"Arrival rate (req/s)", core::fmt(ts.arrivalRate, 2)});
    table.addRow({"Spatial locality (%)", core::fmt(ts.spatialPct, 2)});
    table.addRow(
        {"Temporal locality (%)", core::fmt(ts.temporalPct, 2)});
    if (ts.replayed) {
        table.addRow({"NoWait ratio (%)", core::fmt(ts.noWaitPct, 1)});
        table.addRow(
            {"Mean service (ms)", core::fmt(ts.meanServiceMs, 2)});
        table.addRow(
            {"Mean response (ms)", core::fmt(ts.meanResponseMs, 2)});
    }
    table.print(std::cout);
}

/**
 * Load a trace through the structured-error API: malformed input or an
 * unopenable file prints the offending line and reason instead of
 * aborting the process.
 * @retval true on success.
 */
bool
loadTraceOrReport(const std::string &path, trace::Trace &t)
{
    trace::TraceLoadError err;
    if (!trace::Trace::tryLoadFile(path, t, err)) {
        std::cerr << "error: cannot load trace " << path << ": "
                  << err.message() << "\n";
        return false;
    }
    return true;
}

int
cmdAnalyze(const std::string &path)
{
    trace::Trace t;
    if (!loadTraceOrReport(path, t))
        return 1;
    std::string problem = t.validate();
    if (!problem.empty()) {
        std::cerr << "invalid trace: " << problem << "\n";
        return 1;
    }
    std::cout << "Trace \"" << t.name() << "\" (" << path << ")\n\n";
    printStats(t);
    return 0;
}

/** Read and parse @p path as a run-report JSON document. */
bool
loadJsonReport(const std::string &path, obs::JsonValue &out)
{
    std::ifstream is(path);
    std::ostringstream buf;
    if (is)
        buf << is.rdbuf();
    if (!is) {
        std::cerr << "error: cannot read " << path << "\n";
        return false;
    }
    std::string err;
    if (!obs::JsonValue::parse(buf.str(), out, err)) {
        std::cerr << "error: " << path << ": " << err << "\n";
        return false;
    }
    return true;
}

int
cmdExplain(const std::string &path)
{
    obs::JsonValue report;
    if (!loadJsonReport(path, report))
        return 1;
    std::string err;
    if (!obs::explainReport(report, std::cout, err)) {
        std::cerr << "error: " << path << ": " << err << "\n";
        return 1;
    }
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    obs::JsonValue before;
    obs::JsonValue after;
    if (!loadJsonReport(path_a, before) || !loadJsonReport(path_b, after))
        return 1;
    std::cout << "diff " << path_a << " -> " << path_b << "\n";
    std::string err;
    if (!obs::diffReports(before, after, std::cout, err)) {
        std::cerr << "error: " << err << "\n";
        return 1;
    }
    return 0;
}

bool
parseScheme(const std::string &name, core::SchemeKind &kind)
{
    for (core::SchemeKind k : core::extendedSchemes()) {
        if (core::schemeName(k) == name) {
            kind = k;
            return true;
        }
    }
    return false;
}

/** Observability output files requested on the command line. */
struct ObsOutputs
{
    std::string metricsJson; ///< run-report JSON (--metrics-json)
    std::string chromeTrace; ///< Chrome trace_event JSON (--trace-out)
    std::string replayedTrace; ///< replayed trace, text (--trace-csv)
};

/** Write @p path through @p write(os); prints an error on failure. */
template <typename Write>
bool
writeFileOrReport(const std::string &path, Write &&write)
{
    std::ofstream os(path);
    if (os)
        write(os);
    if (!os) {
        std::cerr << "error: cannot write " << path << "\n";
        return false;
    }
    return true;
}

/** How cmdReplay drives the run: plain, capture, or resume. */
enum class RunMode { Replay, Snapshot, Restore };

/** Randomized SPO schedule requested via --spo-random=N,seed. */
struct SpoRandomArgs
{
    std::uint64_t count = 0; ///< 0 = not requested
    std::uint64_t seed = 1;
};

int
cmdReplay(const std::string &path, const std::string &scheme,
          core::ExperimentOptions opts, const ObsOutputs &outs,
          const SpoRandomArgs &spo_random = {},
          RunMode mode = RunMode::Replay,
          const std::string &image_path = {})
{
    core::SchemeKind kind = core::SchemeKind::HPS;
    if (!parseScheme(scheme, kind)) {
        std::cerr << "error: unknown scheme (use 4PS, 8PS, HPS, or "
                     "HSLC): "
                  << scheme << "\n";
        return 2;
    }

    // emmctrace-bin replays stream (bounded memory); everything that
    // needs the whole trace in hand is text-path only.
    const bool binary = trace::BinTraceSource::isBinTraceFile(path);
    core::CaseResult res;
    if (binary) {
        if (mode != RunMode::Replay) {
            std::cerr << "error: " << (mode == RunMode::Snapshot
                                           ? "snapshot"
                                           : "restore")
                      << " needs a text trace (emmctrace-bin streams "
                         "and cannot capture/resume)\n";
            return 2;
        }
        if (spo_random.count > 0) {
            std::cerr << "error: --spo-random needs a text trace (the "
                         "emmctrace-bin header carries no arrival span "
                         "to draw from; use --spo-at)\n";
            return 2;
        }
        if (!outs.replayedTrace.empty()) {
            std::cerr << "error: --trace-csv needs a text trace (a "
                         "streamed emmctrace-bin replay keeps no "
                         "per-record timestamps)\n";
            return 2;
        }
        trace::BinTraceSource src(path);
        if (src.failed()) {
            std::cerr << "error: cannot load trace " << path << ": "
                      << src.error().message() << "\n";
            return 1;
        }
        res = core::runCaseStream(src, kind, opts);
        if (src.failed()) {
            std::cerr << "error: trace " << path
                      << " failed mid-stream: " << src.error().message()
                      << "\n";
            return 1;
        }
        std::cout << "Replayed \"" << res.traceName << "\" on "
                  << res.scheme << "\n\n";
        core::TablePrinter table({"Metric", "Value"});
        table.addRow({"Requests", core::fmt(res.requests)});
        table.addRow(
            {"Mean response (ms)", core::fmt(res.meanResponseMs, 2)});
        table.addRow(
            {"Mean service (ms)", core::fmt(res.meanServiceMs, 2)});
        table.addRow({"NoWait ratio (%)", core::fmt(res.noWaitPct, 1)});
        table.addRow(
            {"p99 response est (ms)", core::fmt(res.p99ResponseMs, 2)});
        table.print(std::cout);
    } else {
        trace::Trace t;
        if (!loadTraceOrReport(path, t))
            return 1;
        if (spo_random.count > 0) {
            sim::Time horizon = 0;
            for (const auto &r : t.records())
                horizon = std::max(horizon, r.arrival);
            if (horizon <= 0) {
                std::cerr << "error: --spo-random needs a trace with "
                             "nonzero arrival times\n";
                return 2;
            }
            std::vector<sim::Time> drawn = fault::drawSpoTicks(
                static_cast<std::uint32_t>(spo_random.count),
                spo_random.seed, horizon);
            opts.spo.ticks.insert(opts.spo.ticks.end(), drawn.begin(),
                                  drawn.end());
            std::sort(opts.spo.ticks.begin(), opts.spo.ticks.end());
        }

        if (mode == RunMode::Restore) {
            std::ifstream is(image_path, std::ios::binary);
            std::ostringstream buf;
            if (is)
                buf << is.rdbuf();
            if (!is) {
                std::cerr << "error: cannot read snapshot " << image_path
                          << "\n";
                return 1;
            }
            // Resumed from a view of the stream's buffer: one image.
            res = core::resumeCase(t, kind, buf.view(), opts);
        } else {
            res = core::runCase(t, kind, opts);
        }
        if (mode == RunMode::Snapshot) {
            std::ofstream os(image_path, std::ios::binary);
            if (os)
                os.write(res.snapshotImage.data(),
                         static_cast<std::streamsize>(
                             res.snapshotImage.size()));
            if (!os) {
                std::cerr << "error: cannot write snapshot " << image_path
                          << "\n";
                return 1;
            }
            std::cout << "wrote snapshot (" << res.snapshotImage.size()
                      << " bytes) to " << image_path << "\n";
        }
        std::cout << "Replayed \"" << t.name() << "\" on " << res.scheme
                  << "\n\n";
        printStats(res.replayed);
    }
    std::cout << "\nSpace utilization: "
              << core::fmt(res.spaceUtilization, 3) << "\n";
    if (opts.fault.enabled) {
        core::TablePrinter table({"Reliability metric", "Value"});
        table.addRow({"p99 response (ms)",
                      core::fmt(res.p99ResponseMs, 2)});
        table.addRow({"Corrected reads", core::fmt(res.correctedReads)});
        table.addRow(
            {"Uncorrectable reads", core::fmt(res.uncorrectableReads)});
        table.addRow(
            {"Read-retry rounds", core::fmt(res.readRetryRounds)});
        table.addRow(
            {"Program failures", core::fmt(res.programFailures)});
        table.addRow({"Erase failures", core::fmt(res.eraseFailures)});
        table.addRow(
            {"Relocated programs", core::fmt(res.relocatedPrograms)});
        table.addRow({"Retired blocks", core::fmt(res.retiredBlocks)});
        table.addRow({"Host retries", core::fmt(res.hostRetries)});
        table.addRow(
            {"Host failed requests", core::fmt(res.hostFailedRequests)});
        table.addRow({"Host retry penalty (ms)",
                      core::fmt(res.hostRetryPenaltyMs, 2)});
        table.addRow(
            {"Device read-only", res.deviceReadOnly ? "yes" : "no"});
        std::cout << "\n";
        table.print(std::cout);
    }
    if (!opts.spo.ticks.empty()) {
        core::TablePrinter table({"SPO metric", "Value"});
        table.addRow({"Power cuts", core::fmt(res.spoEvents)});
        table.addRow({"Torn pages", core::fmt(res.spoTornPages)});
        table.addRow(
            {"Lost dirty buffer units", core::fmt(res.spoLostDirtyUnits)});
        table.addRow(
            {"Re-issued requests", core::fmt(res.reissuedRequests)});
        table.addRow(
            {"Recovery time (ms)", core::fmt(res.recoveryTimeMs, 3)});
        table.addRow(
            {"Journal pages flushed", core::fmt(res.journalPagesFlushed)});
        table.addRow(
            {"Journal checkpoints", core::fmt(res.journalCheckpoints)});
        std::cout << "\n";
        table.print(std::cout);
    }
    if (opts.auditEveryEvents > 0) {
        std::cout << "\n";
        core::printAuditReport(std::cout, res.audit);
        if (!res.audit.clean())
            return 3;
    }

    if (!outs.metricsJson.empty()) {
        obs::RunReport report;
        report.setMeta("tool", "emmcsim_cli");
        report.setMeta("command", "replay");
        report.setMeta("trace", res.traceName);
        report.setMeta("trace_file", path);
        report.setMeta("scheme", res.scheme);
        report.setMeta("requests", res.requests);
        report.addRun("replay", res.obs.metrics, res.obs.series,
                      res.obs.attribution);
        report.writeJsonFile(outs.metricsJson);
        std::cout << "\nwrote metrics report to " << outs.metricsJson
                  << "\n";
    }
    if (!outs.chromeTrace.empty()) {
        if (!writeFileOrReport(outs.chromeTrace, [&](std::ostream &os) {
                os << res.obs.chromeTrace;
            }))
            return 1;
        std::cout << "wrote Chrome trace to " << outs.chromeTrace
                  << "\n";
    }
    if (!outs.replayedTrace.empty()) {
        if (!writeFileOrReport(outs.replayedTrace, [&](std::ostream &os) {
                res.replayed.save(os);
            }))
            return 1;
        std::cout << "wrote replayed trace to " << outs.replayedTrace
                  << "\n";
    }
    return 0;
}

int
cmdIngest(const std::string &format_name, const std::string &in_path,
          const std::string &out_path,
          const trace::ingest::IngestOptions &iopts,
          const std::string &metrics_json)
{
    trace::ingest::Format format;
    if (!trace::ingest::formatFromName(format_name, format)) {
        std::cerr << "error: unknown format (use "
                  << trace::ingest::formatNames() << "): " << format_name
                  << "\n";
        return 2;
    }
    trace::Trace t;
    trace::ingest::IngestStats st;
    std::string err;
    if (!trace::ingest::ingestFile(format, in_path, iopts, t, st, err)) {
        std::cerr << "error: cannot ingest " << in_path << ": " << err
                  << "\n";
        return 1;
    }
    trace::saveBinTraceFile(t, out_path);

    std::cout << "Ingested \"" << t.name() << "\" (" << format_name
              << ") -> " << out_path << "\n\n";
    core::TablePrinter table({"Ingest metric", "Value"});
    table.addRow({"Lines read", core::fmt(st.linesTotal)});
    table.addRow({"Lines skipped", core::fmt(st.linesSkipped)});
    table.addRow({"Records parsed", core::fmt(st.parsed)});
    table.addRow({"Records kept", core::fmt(st.kept)});
    table.addRow({"Dropped (volume filter)", core::fmt(st.droppedVolume)});
    table.addRow({"Dropped (zero size)", core::fmt(st.droppedZeroSize)});
    table.addRow({"Dropped (oversize)", core::fmt(st.droppedOversize)});
    table.addRow({"4KB re-aligned", core::fmt(st.aligned)});
    table.addRow({"Address-remapped", core::fmt(st.remapped)});
    table.addRow({"Reads / writes",
                  core::fmt(st.reads) + " / " + core::fmt(st.writes)});
    table.addRow({"Read data (KB)", core::fmt(st.readBytes / 1024)});
    table.addRow({"Write data (KB)", core::fmt(st.writeBytes / 1024)});
    table.addRow({"Span (s)", core::fmt(sim::toSeconds(st.spanNs), 3)});
    table.addRow({"Volumes seen", core::fmt(st.volumesSeen)});
    table.print(std::cout);

    if (!metrics_json.empty()) {
        obs::MetricsSnapshot snap;
        auto counter = [&snap](const char *name, std::uint64_t v) {
            snap.counters.push_back({name, v});
        };
        counter("ingest.lines_total", st.linesTotal);
        counter("ingest.lines_skipped", st.linesSkipped);
        counter("ingest.records_parsed", st.parsed);
        counter("ingest.records_kept", st.kept);
        counter("ingest.dropped_volume", st.droppedVolume);
        counter("ingest.dropped_zero_size", st.droppedZeroSize);
        counter("ingest.dropped_oversize", st.droppedOversize);
        counter("ingest.aligned", st.aligned);
        counter("ingest.remapped", st.remapped);
        counter("ingest.reads", st.reads);
        counter("ingest.writes", st.writes);
        counter("ingest.read_bytes", st.readBytes);
        counter("ingest.write_bytes", st.writeBytes);
        counter("ingest.span_ns", static_cast<std::uint64_t>(st.spanNs));
        counter("ingest.volumes_seen", st.volumesSeen);

        obs::RunReport report;
        report.setMeta("tool", "emmcsim_cli");
        report.setMeta("command", "ingest");
        report.setMeta("format", format_name);
        report.setMeta("input", in_path);
        report.setMeta("output", out_path);
        report.setMeta("trace", t.name());
        report.addRun("ingest", std::move(snap));
        report.writeJsonFile(metrics_json);
        std::cout << "\nwrote ingest report to " << metrics_json << "\n";
    }
    return 0;
}

int
cmdTraceInfo(const std::string &path, const std::string &metrics_json)
{
    // Both encodings stream through the same cursor interface, so a
    // multi-GB trace is summarized in bounded memory.
    const bool binary = trace::BinTraceSource::isBinTraceFile(path);
    trace::BinTraceSource bin_src(binary ? path : std::string());
    trace::TextTraceSource text_src(binary ? std::string() : path);
    trace::TraceSource &src =
        binary ? static_cast<trace::TraceSource &>(bin_src) : text_src;
    if (src.failed()) {
        std::cerr << "error: cannot load trace " << path << ": "
                  << src.error().message() << "\n";
        return 1;
    }

    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    sim::Time span = 0;
    bool replayed = true;
    std::vector<trace::TraceRecord> chunk(4096);
    while (true) {
        const std::size_t n = src.next(chunk.data(), chunk.size());
        if (n == 0)
            break;
        records += n;
        for (std::size_t i = 0; i < n; ++i) {
            const trace::TraceRecord &r = chunk[i];
            if (r.isWrite()) {
                ++writes;
                write_bytes += r.sizeBytes.value();
            } else {
                ++reads;
                read_bytes += r.sizeBytes.value();
            }
            span = std::max(span, r.arrival);
            replayed = replayed && r.replayed();
        }
    }
    if (src.failed()) {
        std::cerr << "error: trace " << path << " is corrupt: "
                  << src.error().message() << "\n";
        return 1;
    }

    std::cout << "Trace \"" << src.name() << "\" (" << path << ")\n\n";
    core::TablePrinter table({"Field", "Value"});
    table.addRow({"Format", binary ? "emmctrace-bin v1"
                                   : "emmctrace v1 (text)"});
    if (binary) {
        const trace::BinTraceInfo &info = bin_src.info();
        table.addRow({"Header records", core::fmt(info.records)});
        table.addRow({"Block records", core::fmt(std::uint64_t{
                         info.blockRecords})});
        table.addRow({"Checksum", "verified"});
        table.addRow({"Replay timestamps",
                      info.hasReplayTimes ? "yes" : "no"});
    } else {
        table.addRow({"Replay timestamps",
                      records > 0 && replayed ? "yes" : "no"});
    }
    table.addRow({"Records", core::fmt(records)});
    table.addRow({"Reads / writes",
                  core::fmt(reads) + " / " + core::fmt(writes)});
    table.addRow({"Read data (KB)", core::fmt(read_bytes / 1024)});
    table.addRow({"Write data (KB)", core::fmt(write_bytes / 1024)});
    table.addRow({"Span (s)", core::fmt(sim::toSeconds(span), 3)});
    table.print(std::cout);

    if (!metrics_json.empty()) {
        obs::MetricsSnapshot snap;
        snap.counters.push_back({"trace.records", records});
        snap.counters.push_back({"trace.reads", reads});
        snap.counters.push_back({"trace.writes", writes});
        snap.counters.push_back({"trace.read_bytes", read_bytes});
        snap.counters.push_back({"trace.write_bytes", write_bytes});
        snap.counters.push_back(
            {"trace.span_ns", static_cast<std::uint64_t>(span)});

        obs::RunReport report;
        report.setMeta("tool", "emmcsim_cli");
        report.setMeta("command", "trace-info");
        report.setMeta("trace", src.name());
        report.setMeta("trace_file", path);
        report.setMeta("format",
                       binary ? "emmctrace-bin v1" : "emmctrace v1");
        report.addRun("trace-info", std::move(snap));
        report.writeJsonFile(metrics_json);
        std::cout << "\nwrote trace report to " << metrics_json << "\n";
    }
    return 0;
}

int
cmdCompare(const std::string &app, double scale)
{
    const workload::AppProfile *p = workload::findProfile(app);
    if (p == nullptr) {
        std::cerr << "unknown application: " << app << "\n";
        return 1;
    }
    workload::TraceGenerator gen(*p, 1);
    trace::Trace t = gen.generate(scale);
    core::TablePrinter table(
        {"Scheme", "MRT (ms)", "Mean serv (ms)", "Space util"});
    for (core::SchemeKind kind : core::extendedSchemes()) {
        core::CaseResult res = core::runCase(t, kind);
        table.addRow({res.scheme, core::fmt(res.meanResponseMs),
                      core::fmt(res.meanServiceMs),
                      core::fmt(res.spaceUtilization, 3)});
    }
    table.print(std::cout);
    return 0;
}

/** One ablation variant applied on top of the Table V scheme. */
struct SweepVariant
{
    std::string name;
    core::ExperimentOptions opts;
};

/** Map an --ablate toggle name to its experiment options. */
bool
parseVariant(const std::string &name, SweepVariant &out)
{
    core::ExperimentOptions opts;
    if (name == "baseline") {
        // Table V device as-is.
    } else if (name == "nopack") {
        opts.packing = false;
    } else if (name == "idlegc") {
        opts.idleGc = true;
    } else if (name == "multiplane") {
        opts.multiplane = true;
    } else if (name == "costbenefit") {
        opts.gcVictimPolicy = ftl::GcVictimPolicy::CostBenefit;
    } else if (name == "static-alloc") {
        opts.allocPolicy = ftl::AllocPolicy::StaticLpn;
    } else {
        return false;
    }
    out.name = name;
    out.opts = opts;
    return true;
}

/** Split a comma-separated flag value ("a,b,c"); skips empties. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** Parsed `sweep` invocation. */
struct SweepArgs
{
    std::vector<std::string> apps; ///< empty = all individual profiles
    std::vector<core::SchemeKind> schemes;
    std::vector<SweepVariant> variants;
    double scale = 0.25;
    std::uint64_t seed = 1;
    unsigned jobs = 0; ///< 0 = one worker per hardware thread
    std::string metricsJson;
    bool attribution = false; ///< per-run attribution in the report
};

/**
 * Fan the (app x scheme x variant) product out over core::runCases
 * worker threads and print one table row per case, in the deterministic
 * product order. Traces are generated once per app up front and
 * shared read-only by the workers, so every run replays identical
 * input regardless of --jobs.
 */
int
cmdSweep(const SweepArgs &sa)
{
    std::vector<const workload::AppProfile *> profiles;
    if (sa.apps.empty()) {
        for (const workload::AppProfile &p :
             workload::individualProfiles())
            profiles.push_back(&p);
    } else {
        for (const std::string &app : sa.apps) {
            const workload::AppProfile *p = workload::findProfile(app);
            if (p == nullptr) {
                std::cerr << "unknown application: " << app << "\n";
                return 1;
            }
            profiles.push_back(p);
        }
    }

    std::vector<trace::Trace> traces;
    traces.reserve(profiles.size());
    for (const workload::AppProfile *p : profiles) {
        workload::TraceGenerator gen(*p, sa.seed);
        traces.push_back(gen.generate(sa.scale));
    }

    std::vector<core::SweepCase> cases;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        for (core::SchemeKind kind : sa.schemes) {
            for (const SweepVariant &variant : sa.variants) {
                core::SweepCase c;
                c.label = profiles[ti]->name + "/" +
                          core::schemeName(kind) + "/" + variant.name;
                c.trace = &traces[ti];
                c.kind = kind;
                c.opts = variant.opts;
                c.opts.obs.metrics = !sa.metricsJson.empty();
                c.opts.obs.attribution = sa.attribution;
                cases.push_back(std::move(c));
            }
        }
    }

    std::cout << "Sweep: " << cases.size() << " cases ("
              << profiles.size() << " apps x " << sa.schemes.size()
              << " schemes x " << sa.variants.size()
              << " variants) on " << core::effectiveJobs(sa.jobs)
              << " workers, scale " << sa.scale << ", seed " << sa.seed
              << "\n\n";

    const std::vector<core::CaseResult> results =
        core::runCases(cases, sa.jobs);

    core::TablePrinter table({"Case", "MRT (ms)", "Mean serv (ms)",
                              "Space util", "WA", "GC rounds",
                              "p99 resp (ms)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::CaseResult &res = results[i];
        table.addRow({cases[i].label, core::fmt(res.meanResponseMs),
                      core::fmt(res.meanServiceMs),
                      core::fmt(res.spaceUtilization, 3),
                      core::fmt(res.writeAmplification, 3),
                      core::fmt(res.gcBlockingRounds),
                      core::fmt(res.p99ResponseMs)});
    }
    table.print(std::cout);

    if (!sa.metricsJson.empty()) {
        obs::RunReport report;
        report.setMeta("tool", "emmcsim_cli");
        report.setMeta("command", "sweep");
        report.setMeta("scale", sa.scale);
        report.setMeta("seed", sa.seed);
        report.setMeta("cases",
                       static_cast<std::uint64_t>(cases.size()));
        for (std::size_t i = 0; i < results.size(); ++i)
            report.addRun(cases[i].label, results[i].obs.metrics, {},
                          results[i].obs.attribution);
        report.writeJsonFile(sa.metricsJson);
        std::cout << "\nwrote metrics report (" << report.runCount()
                  << " runs) to " << sa.metricsJson << "\n";
    }
    return 0;
}

int
usage()
{
    std::cerr
        << "usage:\n"
           "  emmcsim_cli list\n"
           "  emmcsim_cli generate <app> <out> [scale] [seed]\n"
           "  emmcsim_cli analyze <trace-file>\n"
           "  emmcsim_cli replay <trace-file> [4PS|8PS|HPS|HSLC]\n"
           "      [--audit[=N]]           full invariant audits every N "
           "events (default 10000)\n"
           "      [--fault-rber=X]        enable NAND fault injection "
           "at base RBER X\n"
           "      [--fault-seed=N]        fault-injection RNG seed "
           "(default 1)\n"
           "      [--fault-program-fail=X] program-status failure "
           "probability\n"
           "      [--fault-erase-fail=X]  erase failure probability\n"
           "      [--retries=N]           host retry budget per failed "
           "request (default 3)\n"
           "      [--metrics-json=FILE]   write the run-report JSON "
           "(all registry metrics)\n"
           "      [--trace-out=FILE]      record request/flash spans, "
           "write Chrome trace JSON\n"
           "      [--trace-csv=FILE]      write the replayed trace "
           "(BIOtracer timestamps) as\n"
           "                              emmctrace text (text "
           "traces)\n"
           "      [--sample-window-ms=N]  record windowed metric "
           "series every N ms\n"
           "      [--attribution]         per-request phase ledgers -> "
           "report \"attribution\" section\n"
           "      [--spo-at=NS[,NS...]]   cut device power at the "
           "given simulated ns\n"
           "      [--spo-random=N,SEED]   cut power at N seeded random "
           "points in the run (text traces)\n"
           "      [--spo-notify]          send POWER_OFF_NOTIFICATION "
           "before each cut\n"
           "      [--spo-delay-ms=N]      power-off duration per cut "
           "(default 100 ms)\n"
           "  emmcsim_cli snapshot <trace-file> <image-out> "
           "[4PS|8PS|HPS|HSLC] --at=NS\n"
           "      capture a resumable image at the first quiescent "
           "point at/after NS;\n"
           "      accepts the replay flags except --spo-*\n"
           "  emmcsim_cli restore <trace-file> <image-file> "
           "[4PS|8PS|HPS|HSLC]\n"
           "      resume a snapshot to completion; pass the same "
           "flags as the capture\n"
           "  emmcsim_cli compare <app> [scale]\n"
           "  emmcsim_cli sweep [app ...]\n"
           "      [--schemes=4PS,8PS,HPS,HSLC] schemes to replay "
           "(default 4PS,8PS,HPS)\n"
           "      [--ablate=LIST]         ablation variants per case: "
           "baseline, nopack,\n"
           "                              idlegc, multiplane, "
           "costbenefit, static-alloc\n"
           "      [--scale=X]             trace scale factor (default "
           "0.25)\n"
           "      [--seed=N]              trace-generator seed "
           "(default 1)\n"
           "      [--jobs=N]              worker threads (default: one "
           "per hardware thread);\n"
           "                              results are byte-identical "
           "for every N\n"
           "      [--metrics-json=FILE]   run-report JSON, one run per "
           "case\n"
           "      [--attribution]         per-run attribution sections "
           "in the report\n"
           "  emmcsim_cli explain <report.json>\n"
           "      print where the time went: phase breakdown, tail "
           "composition,\n"
           "      slowest requests and mount cost (needs "
           "--attribution data)\n"
           "  emmcsim_cli diff <before.json> <after.json>\n"
           "      attribute the response-time change between two "
           "reports to phases\n"
           "  emmcsim_cli ingest <format> <in-file> <out-file>\n"
           "      import a foreign block trace as normalized "
           "emmctrace-bin v1;\n"
           "      formats: emmctrace, blktrace, biosnoop, alibaba, "
           "tencent\n"
           "      [--volume=ID]           keep only this device/volume "
           "id\n"
           "      [--target-units=N]      fold addresses into an "
           "N-unit (4KB) device\n"
           "      [--name=NAME]           workload name for the "
           "output trace\n"
           "      [--metrics-json=FILE]   write ingest statistics as "
           "a run report\n"
           "  emmcsim_cli trace-info <trace-file> "
           "[--metrics-json=FILE]\n"
           "      header + streamed statistics of a text or "
           "emmctrace-bin trace\n"
           "\n"
           "  EMMCSIM_LOG=[level][,comp=level...] controls logging "
           "(debug|info|warn), e.g. EMMCSIM_LOG=warn,gc=debug\n";
    return 2;
}

int
usageError(const std::string &what)
{
    std::cerr << "error: " << what << "\n\n";
    return usage();
}

// Number parsing is shared with the other binaries (core/cli_util.hh)
// so every CLI rejects the same malformed inputs.
using core::parseF64;
using core::parseJobs;
using core::parseU64;

/**
 * Split @p args into positional arguments and "--name[=value]" flags.
 * Flags listed in @p value_flags may also take their value as the next
 * token ("--flag value"). Unknown flags are a usage error.
 * @retval true on success.
 */
bool
splitArgs(const std::vector<std::string> &args,
          const std::vector<std::string> &known_flags,
          const std::vector<std::string> &value_flags,
          std::vector<std::string> &positionals,
          std::vector<std::pair<std::string, std::string>> &flags,
          std::string &problem)
{
    auto contains = [](const std::vector<std::string> &v,
                       const std::string &s) {
        return std::find(v.begin(), v.end(), s) != v.end();
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a.rfind("--", 0) != 0) {
            positionals.push_back(a);
            continue;
        }
        std::string name = a;
        std::string value;
        bool has_value = false;
        const std::size_t eq = a.find('=');
        if (eq != std::string::npos) {
            name = a.substr(0, eq);
            value = a.substr(eq + 1);
            has_value = true;
        }
        if (!contains(known_flags, name)) {
            problem = "unknown flag: " + name;
            return false;
        }
        if (!has_value && contains(value_flags, name) &&
            i + 1 < args.size() &&
            args[i + 1].rfind("--", 0) != 0) {
            value = args[++i];
            has_value = true;
        }
        flags.emplace_back(name, has_value ? value : std::string());
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> raw(argv + 1, argv + argc);
    if (raw.empty())
        return usage();
    const std::string cmd = raw[0];
    const std::vector<std::string> rest(raw.begin() + 1, raw.end());

    // Per-subcommand flag tables; anything else is a usage error.
    std::vector<std::string> known;
    std::vector<std::string> valued;
    if (cmd == "replay" || cmd == "snapshot" || cmd == "restore") {
        known = {"--audit", "--fault-rber", "--fault-seed",
                 "--fault-program-fail", "--fault-erase-fail",
                 "--retries", "--metrics-json", "--trace-out",
                 "--trace-csv", "--sample-window-ms"};
        valued = known;
        known.push_back("--attribution");
        if (cmd == "replay") {
            known.insert(known.end(),
                         {"--spo-at", "--spo-random", "--spo-notify",
                          "--spo-delay-ms"});
            valued.insert(valued.end(),
                          {"--spo-at", "--spo-random", "--spo-delay-ms"});
        } else if (cmd == "snapshot") {
            known.push_back("--at");
            valued.push_back("--at");
        }
    } else if (cmd == "sweep") {
        known = {"--schemes", "--ablate", "--scale", "--seed",
                 "--jobs", "--metrics-json"};
        valued = known;
        known.push_back("--attribution");
    } else if (cmd == "ingest") {
        known = {"--volume", "--target-units", "--name",
                 "--metrics-json"};
        valued = known;
    } else if (cmd == "trace-info") {
        known = {"--metrics-json"};
        valued = known;
    }
    std::vector<std::string> pos;
    std::vector<std::pair<std::string, std::string>> flags;
    std::string problem;
    if (!splitArgs(rest, known, valued, pos, flags, problem))
        return usageError(problem);

    if (cmd == "list") {
        if (!pos.empty())
            return usageError("list takes no arguments");
        return cmdList();
    }
    if (cmd == "generate") {
        if (pos.size() < 2 || pos.size() > 4)
            return usageError(
                "generate needs <app> <out> [scale] [seed]");
        double scale = 1.0;
        std::uint64_t seed = 1;
        if (pos.size() > 2 && (!parseF64(pos[2], scale) || scale <= 0))
            return usageError("bad scale: " + pos[2]);
        if (pos.size() > 3 && !parseU64(pos[3], seed))
            return usageError("bad seed: " + pos[3]);
        return cmdGenerate(pos[0], pos[1], scale, seed);
    }
    if (cmd == "analyze") {
        if (pos.size() != 1)
            return usageError("analyze needs exactly <trace-file>");
        return cmdAnalyze(pos[0]);
    }
    if (cmd == "replay" || cmd == "snapshot" || cmd == "restore") {
        RunMode mode = cmd == "snapshot"  ? RunMode::Snapshot
                       : cmd == "restore" ? RunMode::Restore
                                          : RunMode::Replay;
        std::string image_path;
        if (mode == RunMode::Replay) {
            if (pos.empty() || pos.size() > 2)
                return usageError(
                    "replay needs <trace-file> [4PS|8PS|HPS|HSLC]");
        } else {
            if (pos.size() < 2 || pos.size() > 3)
                return usageError(
                    cmd + " needs <trace-file> <image-file> "
                          "[4PS|8PS|HPS|HSLC]");
            image_path = pos[1];
            pos.erase(pos.begin() + 1);
        }
        core::ExperimentOptions opts;
        ObsOutputs outs;
        SpoRandomArgs spo_random;
        bool have_at = false;
        for (const auto &[name, value] : flags) {
            if (name == "--audit") {
                opts.auditEveryEvents = 10000;
                if (!value.empty() &&
                    (!parseU64(value, opts.auditEveryEvents) ||
                     opts.auditEveryEvents == 0))
                    return usageError("bad --audit interval: " + value);
            } else if (core::isFaultFlag(name)) {
                if (!core::parseFaultFlag(name, value, opts.fault))
                    return usageError("bad " + name + ": " + value);
            } else if (name == "--retries") {
                std::uint64_t n = 0;
                if (!parseU64(value, n) || n > 1000)
                    return usageError("bad --retries: " + value);
                opts.hostMaxRetries = static_cast<std::uint32_t>(n);
            } else if (name == "--metrics-json") {
                if (value.empty())
                    return usageError("--metrics-json needs a file");
                outs.metricsJson = value;
                opts.obs.metrics = true;
            } else if (name == "--trace-out") {
                if (value.empty())
                    return usageError("--trace-out needs a file");
                outs.chromeTrace = value;
                opts.obs.traceSpans = true;
            } else if (name == "--trace-csv") {
                if (value.empty())
                    return usageError("--trace-csv needs a file");
                outs.replayedTrace = value;
            } else if (name == "--sample-window-ms") {
                std::uint64_t ms = 0;
                if (!parseU64(value, ms) || ms == 0)
                    return usageError("bad --sample-window-ms: " +
                                      value);
                opts.obs.sampleWindow =
                    sim::milliseconds(static_cast<std::int64_t>(ms));
            } else if (name == "--attribution") {
                if (!value.empty())
                    return usageError("--attribution takes no value");
                opts.obs.attribution = true;
            } else if (name == "--spo-at") {
                for (const std::string &s : splitList(value)) {
                    std::uint64_t ns = 0;
                    if (!parseU64(s, ns) || ns == 0)
                        return usageError("bad --spo-at tick: " + s);
                    opts.spo.ticks.push_back(
                        static_cast<sim::Time>(ns));
                }
                if (opts.spo.ticks.empty())
                    return usageError("--spo-at needs a tick list");
                std::sort(opts.spo.ticks.begin(),
                          opts.spo.ticks.end());
            } else if (name == "--spo-random") {
                const std::vector<std::string> parts =
                    splitList(value);
                if (parts.size() != 2 ||
                    !parseU64(parts[0], spo_random.count) ||
                    spo_random.count == 0 ||
                    spo_random.count > 100000 ||
                    !parseU64(parts[1], spo_random.seed))
                    return usageError(
                        "bad --spo-random (want N,SEED): " + value);
            } else if (name == "--spo-notify") {
                if (!value.empty())
                    return usageError("--spo-notify takes no value");
                opts.spo.notify = true;
            } else if (name == "--spo-delay-ms") {
                std::uint64_t ms = 0;
                if (!parseU64(value, ms) || ms == 0)
                    return usageError("bad --spo-delay-ms: " + value);
                opts.spo.powerOnDelay =
                    sim::milliseconds(static_cast<std::int64_t>(ms));
            } else if (name == "--at") {
                std::uint64_t ns = 0;
                if (!parseU64(value, ns))
                    return usageError("bad --at: " + value);
                opts.snapshotAt = static_cast<sim::Time>(ns);
                have_at = true;
            }
        }
        if (opts.obs.sampleWindow > 0 && outs.metricsJson.empty())
            return usageError(
                "--sample-window-ms requires --metrics-json");
        if (opts.obs.attribution && outs.metricsJson.empty())
            return usageError("--attribution requires --metrics-json");
        if (mode == RunMode::Snapshot && !have_at)
            return usageError("snapshot requires --at=NS");
        return cmdReplay(pos[0], pos.size() > 1 ? pos[1] : "HPS", opts,
                         outs, spo_random, mode, image_path);
    }
    if (cmd == "ingest") {
        if (pos.size() != 3)
            return usageError(
                "ingest needs <format> <in-file> <out-file>");
        trace::ingest::IngestOptions iopts;
        std::string metrics_json;
        for (const auto &[name, value] : flags) {
            if (name == "--volume") {
                if (value.empty())
                    return usageError("--volume needs an id");
                iopts.volume = value;
            } else if (name == "--target-units") {
                if (!parseU64(value, iopts.targetUnits) ||
                    iopts.targetUnits == 0)
                    return usageError("bad --target-units: " + value);
            } else if (name == "--name") {
                if (value.empty())
                    return usageError("--name needs a value");
                iopts.name = value;
            } else if (name == "--metrics-json") {
                if (value.empty())
                    return usageError("--metrics-json needs a file");
                metrics_json = value;
            }
        }
        return cmdIngest(pos[0], pos[1], pos[2], iopts, metrics_json);
    }
    if (cmd == "trace-info") {
        if (pos.size() != 1)
            return usageError("trace-info needs exactly <trace-file>");
        std::string metrics_json;
        for (const auto &[name, value] : flags) {
            if (name == "--metrics-json") {
                if (value.empty())
                    return usageError("--metrics-json needs a file");
                metrics_json = value;
            }
        }
        return cmdTraceInfo(pos[0], metrics_json);
    }
    if (cmd == "explain") {
        if (pos.size() != 1 || !flags.empty())
            return usageError("explain needs exactly <report.json>");
        return cmdExplain(pos[0]);
    }
    if (cmd == "diff") {
        if (pos.size() != 2 || !flags.empty())
            return usageError(
                "diff needs exactly <before.json> <after.json>");
        return cmdDiff(pos[0], pos[1]);
    }
    if (cmd == "compare") {
        if (pos.empty() || pos.size() > 2)
            return usageError("compare needs <app> [scale]");
        double scale = 0.5;
        if (pos.size() > 1 && (!parseF64(pos[1], scale) || scale <= 0))
            return usageError("bad scale: " + pos[1]);
        return cmdCompare(pos[0], scale);
    }
    if (cmd == "sweep") {
        SweepArgs sa;
        sa.apps = pos;
        for (const auto &[name, value] : flags) {
            if (name == "--schemes") {
                for (const std::string &s : splitList(value)) {
                    core::SchemeKind kind;
                    if (!parseScheme(s, kind))
                        return usageError("bad --schemes entry: " + s);
                    sa.schemes.push_back(kind);
                }
                if (sa.schemes.empty())
                    return usageError("--schemes needs a list");
            } else if (name == "--ablate") {
                for (const std::string &s : splitList(value)) {
                    SweepVariant variant;
                    if (!parseVariant(s, variant))
                        return usageError("bad --ablate entry: " + s);
                    sa.variants.push_back(std::move(variant));
                }
                if (sa.variants.empty())
                    return usageError("--ablate needs a list");
            } else if (name == "--scale") {
                if (!parseF64(value, sa.scale) || sa.scale <= 0)
                    return usageError("bad --scale: " + value);
            } else if (name == "--seed") {
                if (!parseU64(value, sa.seed))
                    return usageError("bad --seed: " + value);
            } else if (name == "--jobs") {
                if (!parseJobs(value, sa.jobs))
                    return usageError("bad --jobs: " + value);
            } else if (name == "--metrics-json") {
                if (value.empty())
                    return usageError("--metrics-json needs a file");
                sa.metricsJson = value;
            } else if (name == "--attribution") {
                if (!value.empty())
                    return usageError("--attribution takes no value");
                sa.attribution = true;
            }
        }
        if (sa.attribution && sa.metricsJson.empty())
            return usageError("--attribution requires --metrics-json");
        if (sa.schemes.empty())
            sa.schemes.assign(core::allSchemes().begin(),
                              core::allSchemes().end());
        if (sa.variants.empty()) {
            SweepVariant baseline;
            parseVariant("baseline", baseline);
            sa.variants.push_back(std::move(baseline));
        }
        return cmdSweep(sa);
    }
    return usageError("unknown command: " + cmd);
}
