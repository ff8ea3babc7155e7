/**
 * @file
 * Tests for the observability layer (src/obs): registry naming rules
 * and lifecycle, JSON emission, sampler window alignment, tracer
 * determinism, the emmctrace round-trip, and the zero-cost-when-off
 * guarantee (a replay with observability disabled is byte-identical
 * to one that never heard of it).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "trace/trace.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace emmcsim {
namespace {

// ---------------------------------------------------------------------
// Registry: naming rules and snapshot lifecycle
// ---------------------------------------------------------------------

TEST(RegistryTest, DuplicateNamePanics)
{
    obs::Registry reg;
    reg.counter("a.b", [] { return std::uint64_t{0}; });
    EXPECT_DEATH(reg.counter("a.b", [] { return std::uint64_t{1}; }),
                 "duplicate metric name");
    // Collisions are checked across kinds, not just per kind.
    EXPECT_DEATH(reg.gauge("a.b", [] { return 0.0; }),
                 "duplicate metric name");
}

TEST(RegistryTest, MalformedNamesPanic)
{
    obs::Registry reg;
    auto zero = [] { return std::uint64_t{0}; };
    EXPECT_DEATH(reg.counter("", zero), "empty metric name");
    EXPECT_DEATH(reg.counter("A.b", zero), "invalid character");
    EXPECT_DEATH(reg.counter("a..b", zero), "empty name segment");
    EXPECT_DEATH(reg.counter(".a", zero), "empty name segment");
    EXPECT_DEATH(reg.counter("a.", zero), "trailing dot");
}

TEST(RegistryTest, CheckNameAcceptsHierarchicalNames)
{
    EXPECT_TRUE(obs::Registry::checkName("ftl.gc.relocated_units")
                    .empty());
    EXPECT_TRUE(obs::Registry::checkName("emmc.queue_depth").empty());
    EXPECT_TRUE(obs::Registry::checkName("flash.pool0.reads").empty());
    EXPECT_FALSE(obs::Registry::checkName("has space").empty());
    EXPECT_FALSE(obs::Registry::checkName("dash-ed").empty());
}

TEST(RegistryTest, SnapshotReadsCurrentValues)
{
    std::uint64_t events = 0;
    double depth = 0.0;
    sim::OnlineStats lat;
    obs::Registry reg;
    reg.counter("test.events", [&] { return events; });
    reg.gauge("test.depth", [&] { return depth; });
    reg.summary("test.latency", &lat);
    sim::Histogram &hist =
        reg.makeHistogram("test.hist", {1.0, 10.0});

    obs::MetricsSnapshot before = reg.snapshot();
    EXPECT_EQ(before.counterValue("test.events"), 0u);
    EXPECT_TRUE(before.hasCounter("test.events"));
    EXPECT_FALSE(before.hasCounter("test.missing"));

    events = 42;
    depth = 3.5;
    lat.add(2.0);
    lat.add(4.0);
    hist.add(0.5);
    hist.add(5.0);

    obs::MetricsSnapshot after = reg.snapshot();
    EXPECT_EQ(after.counterValue("test.events"), 42u);
    EXPECT_DOUBLE_EQ(after.gaugeValue("test.depth"), 3.5);
    const auto *s = after.findSummary("test.latency");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 2u);
    EXPECT_DOUBLE_EQ(s->mean, 3.0);
    ASSERT_EQ(after.histograms.size(), 1u);
    EXPECT_EQ(after.histograms[0].total, 2u);
    // The earlier snapshot is a value copy, unaffected by the updates.
    EXPECT_EQ(before.counterValue("test.events"), 0u);
    EXPECT_EQ(reg.size(), 4u);
}

TEST(RegistryTest, NamesAreSorted)
{
    obs::Registry reg;
    reg.counter("z.last", [] { return std::uint64_t{0}; });
    reg.counter("a.first", [] { return std::uint64_t{0}; });
    reg.gauge("m.middle", [] { return 0.0; });
    const std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "m.middle");
    EXPECT_EQ(names[2], "z.last");
}

// ---------------------------------------------------------------------
// JsonWriter: escaping, number formatting, structure
// ---------------------------------------------------------------------

TEST(JsonWriterTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(obs::JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(obs::JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::JsonWriter::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(obs::JsonWriter::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(obs::JsonWriter::escape("tab\there"), "tab\\there");
    EXPECT_EQ(obs::JsonWriter::escape(std::string_view("\x01", 1)),
              "\\u0001");
}

TEST(JsonWriterTest, NumbersRoundTrip)
{
    for (double d : {0.0, 0.1, 1.0 / 3.0, 12345.678, 1e-9, -2.5}) {
        const std::string text = obs::JsonWriter::formatNumber(d);
        EXPECT_DOUBLE_EQ(std::stod(text), d) << text;
    }
    // Non-finite values are invalid JSON; the writer neutralizes them.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(obs::JsonWriter::formatNumber(inf), "0");
    EXPECT_EQ(obs::JsonWriter::formatNumber(-inf), "0");
}

TEST(JsonWriterTest, EmitsBalancedStructure)
{
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.beginObject();
    w.field("name", "run");
    w.key("values").beginArray();
    w.value(std::uint64_t{1}).value(2.5).value(true);
    w.endArray();
    w.endObject();
    EXPECT_TRUE(w.done());
    EXPECT_EQ(out.str(), "{\"name\":\"run\",\"values\":[1,2.5,true]}");
}

TEST(JsonWriterTest, StructuralMisusePanics)
{
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.beginObject();
    // A bare value inside an object (no key) is an exporter bug.
    EXPECT_DEATH(w.value(std::uint64_t{1}), "");
}

// ---------------------------------------------------------------------
// Sampler: lazy window alignment
// ---------------------------------------------------------------------

TEST(SamplerTest, SamplesOncePerElapsedBoundary)
{
    std::uint64_t v = 0;
    obs::Registry reg;
    reg.counter("test.count", [&] { return v; });
    obs::Sampler s(reg, 100);

    v = 1;
    s.observe(50); // before the first boundary: nothing recorded
    EXPECT_EQ(s.windows(), 0u);

    v = 2;
    s.observe(100); // boundary 100
    EXPECT_EQ(s.windows(), 1u);

    v = 5;
    s.observe(350); // catches up boundaries 200 and 300
    EXPECT_EQ(s.windows(), 3u);

    const obs::SeriesSet series = s.series();
    EXPECT_EQ(series.window, 100u);
    ASSERT_EQ(series.names.size(), 1u);
    EXPECT_EQ(series.names[0], "test.count");
    ASSERT_EQ(series.values.size(), 1u);
    // Counters are monotonic: the first observation at-or-after a
    // boundary carries the boundary's value.
    EXPECT_EQ(series.values[0],
              (std::vector<double>{2.0, 5.0, 5.0}));
}

TEST(SamplerTest, FinishRecordsPartialWindow)
{
    std::uint64_t v = 0;
    obs::Registry reg;
    reg.counter("test.count", [&] { return v; });
    obs::Sampler s(reg, 100);

    v = 3;
    s.observe(120); // boundary 100
    v = 7;
    s.finish(450); // boundaries 200..400, then the partial [400, 450)
    EXPECT_EQ(s.windows(), 5u);
    EXPECT_EQ(s.series().values[0],
              (std::vector<double>{3.0, 7.0, 7.0, 7.0, 7.0}));
}

TEST(SamplerTest, FinishOnExactBoundaryAddsNoPartial)
{
    std::uint64_t v = 9;
    obs::Registry reg;
    reg.counter("test.count", [&] { return v; });
    obs::Sampler s(reg, 100);
    s.finish(300); // boundaries 100, 200, 300 — nothing in between
    EXPECT_EQ(s.windows(), 3u);
}

// ---------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------

obs::MetricsSnapshot
tinySnapshot()
{
    std::uint64_t v = 11;
    obs::Registry reg;
    reg.counter("test.count", [&] { return v; });
    reg.gauge("test.depth", [] { return 1.5; });
    return reg.snapshot();
}

TEST(RunReportTest, EmitsSchemaMetaAndRuns)
{
    obs::RunReport report;
    report.setMeta("tool", "obs_test");
    report.setMeta("requests", std::uint64_t{7});
    report.addRun("only", tinySnapshot());
    EXPECT_EQ(report.runCount(), 1u);

    std::ostringstream out;
    report.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"schema\":\"emmcsim-run-report-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tool\":\"obs_test\""), std::string::npos);
    EXPECT_NE(json.find("\"requests\":7"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"only\""), std::string::npos);
    EXPECT_NE(json.find("\"test.count\":11"), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
}

TEST(RunReportTest, MetaLastSetWins)
{
    obs::RunReport report;
    report.setMeta("tool", "first");
    report.setMeta("tool", "second");
    std::ostringstream out;
    report.writeJson(out);
    EXPECT_EQ(out.str().find("first"), std::string::npos);
    EXPECT_NE(out.str().find("\"tool\":\"second\""),
              std::string::npos);
}

TEST(RunReportTest, DuplicateRunNamePanics)
{
    obs::RunReport report;
    report.addRun("dup", tinySnapshot());
    EXPECT_DEATH(report.addRun("dup", tinySnapshot()), "dup");
}

// ---------------------------------------------------------------------
// End-to-end: tracer determinism, round-trip, zero-cost-when-off
// ---------------------------------------------------------------------

trace::Trace
smallTrace()
{
    const workload::AppProfile *p = workload::findProfile("Twitter");
    EXPECT_NE(p, nullptr);
    workload::TraceGenerator gen(*p, /*seed=*/7);
    return gen.generate(0.05);
}

core::CaseResult
replayObserved(const trace::Trace &t)
{
    core::ExperimentOptions opts;
    opts.obs.metrics = true;
    opts.obs.traceSpans = true;
    opts.obs.sampleWindow = sim::milliseconds(100);
    return core::runCase(t, core::SchemeKind::PS4, opts);
}

std::string
serialize(const trace::Trace &t)
{
    std::ostringstream os;
    t.save(os);
    return os.str();
}

TEST(ObsEndToEndTest, MetricsMatchCaseResult)
{
    const trace::Trace t = smallTrace();
    const core::CaseResult res = replayObserved(t);
    ASSERT_TRUE(res.obs.enabled);
    EXPECT_EQ(res.obs.metrics.counterValue("emmc.requests"),
              res.requests);
    EXPECT_TRUE(res.obs.metrics.hasCounter("ftl.gc.relocated_units"));
    EXPECT_TRUE(res.obs.metrics.hasCounter("fault.reads_evaluated"));
    EXPECT_TRUE(res.obs.metrics.hasCounter("flash.reads"));
    const auto *resp = res.obs.metrics.findSummary("emmc.response_ms");
    ASSERT_NE(resp, nullptr);
    EXPECT_EQ(resp->count, res.requests);
    EXPECT_NEAR(resp->mean, res.meanResponseMs,
                1e-9 * std::max(1.0, res.meanResponseMs));
    EXPECT_GT(res.obs.series.windows(), 0u);
}

TEST(ObsEndToEndTest, TracerExportsAreDeterministic)
{
    const trace::Trace t = smallTrace();
    const core::CaseResult a = replayObserved(t);
    const core::CaseResult b = replayObserved(t);
    ASSERT_FALSE(a.obs.chromeTrace.empty());
    // Two identical seeded runs must produce byte-identical exports.
    EXPECT_EQ(a.obs.chromeTrace, b.obs.chromeTrace);
}

TEST(ObsEndToEndTest, ZeroCostWhenOff)
{
    const trace::Trace t = smallTrace();
    // Plain replay, exactly as the pre-observability code ran it.
    const core::CaseResult off =
        core::runCase(t, core::SchemeKind::PS4, {});
    EXPECT_FALSE(off.obs.enabled);
    EXPECT_TRUE(off.obs.chromeTrace.empty());
    // Fully instrumented replay of the same trace.
    const core::CaseResult on = replayObserved(t);
    // Observability must not perturb the simulation: every replayed
    // timestamp (and hence the serialized trace) is byte-identical.
    EXPECT_EQ(serialize(off.replayed), serialize(on.replayed));
    EXPECT_DOUBLE_EQ(off.meanResponseMs, on.meanResponseMs);
    EXPECT_EQ(off.gcBlockingRounds, on.gcBlockingRounds);
    EXPECT_EQ(off.totalErases, on.totalErases);
}

} // namespace
} // namespace emmcsim
