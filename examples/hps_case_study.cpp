/**
 * @file
 * The paper's Section V case study on one workload: build the three
 * Table V devices, replay the same trace on each, and report mean
 * response time (Fig 8) and space utilization (Fig 9), plus the
 * flash-operation breakdown that explains the difference.
 *
 * Usage: hps_case_study [app-name] [scale] [--audit] [--jobs=N]
 *                       [--fault-rber=X] [--fault-seed=N]
 *                       [--fault-program-fail=X] [--fault-erase-fail=X]
 *                       [--metrics-json=FILE] [--trace-out=FILE]
 *
 * The three scheme replays are independent, so core::runCases runs
 * them on up to --jobs=N worker threads (default one per hardware
 * thread). Results are collected in scheme order and all output is
 * printed afterwards, so stdout and every artifact are byte-identical
 * whatever the worker count.
 *
 * --metrics-json writes one emmcsim-run-report-v1 JSON file holding a
 * full metrics snapshot per scheme (one "runs" entry each), so the
 * Fig 8/9 numbers and every counter behind them are machine-readable.
 * --trace-out writes the HPS replay's spans as Chrome trace JSON.
 *
 * --audit runs the check/ invariant auditor during each replay
 * (periodic full audits plus a final one) and fails the run when any
 * violation is found — the regression gate for the simulator's
 * bookkeeping. The --fault-* flags turn on seeded NAND fault
 * injection, exercising the read-retry / relocation / retirement
 * paths under the same audits.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scheme.hh"
#include "core/sweep.hh"
#include "obs/report.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

namespace {

int
usage()
{
    std::cerr << "usage: hps_case_study [app-name] [scale] [--audit]\n"
                 "         [--jobs=N] [--fault-rber=X] [--fault-seed=N]\n"
                 "         [--fault-program-fail=X] "
                 "[--fault-erase-fail=X]\n"
                 "         [--metrics-json=FILE] [--trace-out=FILE]\n";
    return 2;
}

int
usageError(const std::string &what)
{
    std::cerr << "error: " << what << "\n";
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    bool audit = false;
    unsigned jobs = 0; // 0 = one worker per hardware thread
    fault::FaultConfig fault_cfg;
    std::string metrics_json;
    std::string trace_out;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a(argv[i]);
        if (a.rfind("--", 0) != 0) {
            args.push_back(a);
            continue;
        }
        std::string name = a;
        std::string value;
        const std::size_t eq = a.find('=');
        if (eq != std::string::npos) {
            name = a.substr(0, eq);
            value = a.substr(eq + 1);
        }
        if (name == "--audit") {
            if (eq != std::string::npos)
                return usageError("--audit takes no value");
            audit = true;
        } else if (name == "--jobs") {
            if (!core::parseJobs(value, jobs))
                return usageError("bad --jobs: " + value);
        } else if (core::isFaultFlag(name)) {
            if (!core::parseFaultFlag(name, value, fault_cfg))
                return usageError("bad " + name + ": " + value);
        } else if (name == "--metrics-json") {
            if (value.empty())
                return usageError("--metrics-json needs a file");
            metrics_json = value;
        } else if (name == "--trace-out") {
            if (value.empty())
                return usageError("--trace-out needs a file");
            trace_out = value;
        } else {
            return usageError("unknown flag: " + name);
        }
    }
    if (args.size() > 2)
        return usageError("too many positional arguments");
    const std::string app = !args.empty() ? args[0] : "Booting";
    double scale = 0.5;
    if (args.size() > 1 &&
        (!core::parseF64(args[1], scale) || scale <= 0))
        return usageError("bad scale: " + args[1]);

    const workload::AppProfile *profile = workload::findProfile(app);
    if (profile == nullptr) {
        std::cerr << "unknown application: " << app << "\n";
        return 1;
    }
    workload::TraceGenerator gen(*profile, /*seed=*/11);
    trace::Trace t = gen.generate(scale);

    std::cout << "HPS case study on \"" << app << "\" (" << t.size()
              << " requests, "
              << core::fmt(static_cast<double>(t.totalBytes().value()) /
                               static_cast<double>(sim::kMiB), 1)
              << " MB accessed)\n\n";

    // One sweep job per Table V scheme; the trace is shared read-only.
    std::vector<core::SweepCase> cases;
    for (core::SchemeKind kind : core::allSchemes()) {
        core::SweepCase c;
        c.label = core::schemeName(kind);
        c.trace = &t;
        c.kind = kind;
        if (audit)
            c.opts.auditEveryEvents = 5000;
        c.opts.fault = fault_cfg;
        c.opts.obs.metrics = !metrics_json.empty();
        // The HPS replay additionally records spans for --trace-out.
        c.opts.obs.traceSpans =
            !trace_out.empty() && kind == core::SchemeKind::HPS;
        cases.push_back(std::move(c));
    }
    const std::vector<core::CaseResult> results =
        core::runCases(cases, jobs);

    core::TablePrinter table({"Scheme", "MRT (ms)", "Mean serv (ms)",
                              "Space util", "Page reads",
                              "Page programs", "4KB-pool programs",
                              "8KB-pool programs"});

    double mrt4 = 0.0;
    std::uint64_t audit_violations = 0;
    obs::RunReport obs_report;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::CaseResult &res = results[i];
        const core::SchemeKind kind = cases[i].kind;

        if (cases[i].opts.obs.traceSpans) {
            std::ofstream os(trace_out);
            if (os)
                os << res.obs.chromeTrace;
            if (!os) {
                std::cerr << "error: cannot write " << trace_out
                          << "\n";
                return 1;
            }
            std::cout << "wrote Chrome trace of the HPS replay to "
                      << trace_out << "\n\n";
        }
        if (!metrics_json.empty())
            obs_report.addRun(res.scheme, res.obs.metrics);

        if (audit) {
            std::cout << "Invariant audit (" << res.scheme << "):\n";
            core::printAuditReport(std::cout, res.audit);
            std::cout << "\n";
            audit_violations += res.audit.totalViolations();
        }

        const double mrt = res.meanResponseMs;
        if (kind == core::SchemeKind::PS4)
            mrt4 = mrt;

        table.addRow({res.scheme, core::fmt(mrt),
                      core::fmt(res.meanServiceMs),
                      core::fmt(res.spaceUtilization, 3),
                      core::fmt(res.pageReads),
                      core::fmt(res.pagePrograms),
                      core::fmt(res.programs4kPool),
                      core::fmt(res.programs8kPool)});

        if (fault_cfg.enabled) {
            std::cout << res.scheme
                      << " fault path: " << res.correctedReads
                      << " corrected reads, " << res.uncorrectableReads
                      << " uncorrectable, " << res.programFailures
                      << " program fails, " << res.eraseFailures
                      << " erase fails, " << res.retiredBlocks
                      << " retired blocks, " << res.hostRetries
                      << " host retries"
                      << (res.deviceReadOnly ? " (read-only)" : "")
                      << "\n\n";
        }

        if (kind == core::SchemeKind::HPS) {
            std::cout << "HPS reduces MRT by "
                      << core::fmt(100.0 * (mrt4 - mrt) / mrt4, 1)
                      << "% vs 4PS (paper: up to 86%).\n\n";
        }
    }
    table.print(std::cout);

    std::cout << "\nReading the table: HPS needs roughly half the "
                 "page operations of 4PS for multi-page requests "
                 "(they ride 8KB pages) while its 4KB pool absorbs "
                 "odd tails, so it keeps 4PS's perfect space "
                 "utilization — the padding an 8KB-only device "
                 "cannot avoid.\n";

    if (!metrics_json.empty()) {
        obs_report.setMeta("tool", "hps_case_study");
        obs_report.setMeta("app", app);
        obs_report.setMeta("scale", scale);
        obs_report.setMeta("trace", t.name());
        obs_report.setMeta("requests",
                           static_cast<std::uint64_t>(t.size()));
        obs_report.writeJsonFile(metrics_json);
        std::cout << "\nwrote metrics report (" << obs_report.runCount()
                  << " runs) to " << metrics_json << "\n";
    }

    if (audit && audit_violations > 0) {
        std::cerr << "\nAUDIT FAILED: " << audit_violations
                  << " invariant violation(s) detected.\n";
        return 4;
    }
    return 0;
}
