/**
 * @file
 * core::Sweep tests: worker mechanics, ordered collection, exception
 * propagation, and the headline determinism contract — a sweep's
 * aggregate artifacts are byte-identical for any worker count.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "core/sweep.hh"
#include "obs/report.hh"
#include "sim/stats.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace emmcsim {
namespace {

TEST(EffectiveJobsTest, NeverReturnsZero)
{
    EXPECT_GE(core::effectiveJobs(0), 1u);
    EXPECT_EQ(core::effectiveJobs(1), 1u);
    EXPECT_EQ(core::effectiveJobs(7), 7u);
}

/**
 * Run @p count jobs on @p jobs workers; every index must run exactly
 * once, on no more than min(jobs, count) distinct threads.
 */
void
expectEveryIndexRunsOnce(std::size_t count, unsigned jobs)
{
    std::vector<std::atomic<int>> runs(count);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    std::vector<std::size_t> out =
        core::runOrdered(count, jobs, [&](std::size_t i) {
            runs[i].fetch_add(1);
            std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
            return i;
        });
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
        EXPECT_EQ(out[i], i);
    }
    EXPECT_LE(threads.size(), std::min<std::size_t>(jobs, count));
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u)
        << "jobs run on worker threads, not the caller";
}

TEST(RunOrderedTest, EveryIndexRunsOnce)
{
    expectEveryIndexRunsOnce(64, 4);
    expectEveryIndexRunsOnce(3, 8); // count < jobs
    expectEveryIndexRunsOnce(0, 4); // nothing to run, no worker
}

TEST(RunOrderedTest, ResultsComeBackInSubmissionOrder)
{
    // Early jobs sleep longest, so completion order is roughly the
    // reverse of submission order — the results must not be.
    const std::size_t n = 16;
    std::vector<int> out =
        core::runOrdered(n, 8, [n](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(n - i));
            return static_cast<int>(i * 10);
        });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * 10));
}

TEST(RunOrderedTest, LowestIndexedExceptionWins)
{
    try {
        core::runOrdered(8, 4, [](std::size_t i) -> int {
            if (i == 2 || i == 5)
                throw std::runtime_error("job " + std::to_string(i));
            return 0;
        });
        FAIL() << "expected runOrdered to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 2");
    }
}

TEST(RunOrderedTest, MoveOnlyResultsSupported)
{
    std::vector<std::unique_ptr<int>> out =
        core::runOrdered(4, 2, [](std::size_t i) {
            return std::make_unique<int>(static_cast<int>(i));
        });
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(*out[i], static_cast<int>(i));
}

/** Build the shared small trace all determinism cases replay. */
trace::Trace
smallTrace()
{
    const workload::AppProfile *p = workload::findProfile("Twitter");
    EXPECT_NE(p, nullptr);
    workload::TraceGenerator gen(*p, /*seed=*/7);
    return gen.generate(0.02);
}

/** The three-scheme sweep used by the determinism tests. */
std::vector<core::SweepCase>
schemeCases(const trace::Trace &t)
{
    std::vector<core::SweepCase> cases;
    for (core::SchemeKind kind : core::allSchemes()) {
        core::SweepCase c;
        c.label = core::schemeName(kind);
        c.trace = &t;
        c.kind = kind;
        c.opts.obs.metrics = true;
        cases.push_back(std::move(c));
    }
    return cases;
}

/** Serialize sweep results the way the CLIs do (run-report JSON). */
std::string
reportJson(const std::vector<core::SweepCase> &cases,
           const std::vector<core::CaseResult> &results)
{
    obs::RunReport report;
    report.setMeta("tool", "sweep_test");
    for (std::size_t i = 0; i < results.size(); ++i)
        report.addRun(cases[i].label, results[i].obs.metrics);
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

TEST(SweepDeterminismTest, ReportJsonIdenticalAcrossWorkerCounts)
{
    const trace::Trace t = smallTrace();
    const std::vector<core::SweepCase> cases = schemeCases(t);

    const std::vector<core::CaseResult> serial =
        core::runCases(cases, 1);
    const std::vector<core::CaseResult> parallel =
        core::runCases(cases, 8);

    ASSERT_EQ(serial.size(), cases.size());
    ASSERT_EQ(parallel.size(), cases.size());
    EXPECT_EQ(reportJson(cases, serial), reportJson(cases, parallel));
}

TEST(SweepDeterminismTest, ScalarResultsIdenticalAcrossWorkerCounts)
{
    const trace::Trace t = smallTrace();
    const std::vector<core::SweepCase> cases = schemeCases(t);

    const std::vector<core::CaseResult> a = core::runCases(cases, 1);
    const std::vector<core::CaseResult> b = core::runCases(cases, 3);

    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(a[i].scheme, b[i].scheme);
        EXPECT_EQ(a[i].requests, b[i].requests);
        EXPECT_EQ(a[i].meanResponseMs, b[i].meanResponseMs);
        EXPECT_EQ(a[i].meanServiceMs, b[i].meanServiceMs);
        EXPECT_EQ(a[i].spaceUtilization, b[i].spaceUtilization);
        EXPECT_EQ(a[i].pageReads, b[i].pageReads);
        EXPECT_EQ(a[i].pagePrograms, b[i].pagePrograms);
        EXPECT_EQ(a[i].programs4kPool, b[i].programs4kPool);
        EXPECT_EQ(a[i].programs8kPool, b[i].programs8kPool);
        EXPECT_EQ(a[i].writeAmplification, b[i].writeAmplification);
        EXPECT_EQ(a[i].p99ResponseMs, b[i].p99ResponseMs);
    }
}

TEST(SweepDeterminismTest, MergedAggregatesMatchSerialAggregation)
{
    // The sweep's per-case samples are pooled on the collector
    // thread; pooling them in any grouping must give the all-in-one
    // percentiles.
    const trace::Trace t = smallTrace();
    const std::vector<core::SweepCase> cases = schemeCases(t);
    const std::vector<core::CaseResult> results =
        core::runCases(cases, 4);

    std::vector<double> all;
    std::vector<double> left;
    std::vector<double> right;
    for (std::size_t i = 0; i < results.size(); ++i) {
        for (const auto &r : results[i].replayed.records()) {
            const double ms = sim::toMilliseconds(r.finish - r.arrival);
            all.push_back(ms);
            (i % 2 == 0 ? left : right).push_back(ms);
        }
    }
    std::vector<double> grouped = right;
    grouped.insert(grouped.end(), left.begin(), left.end());
    std::sort(all.begin(), all.end());
    std::sort(grouped.begin(), grouped.end());
    ASSERT_EQ(grouped.size(), all.size());
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
        EXPECT_EQ(sim::percentile<double>(grouped, p),
                  sim::percentile<double>(all, p));
    }
}

} // namespace
} // namespace emmcsim
