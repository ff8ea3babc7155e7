/**
 * @file
 * Snapshot / resume determinism: a run captured mid-flight and
 * continued in a fresh simulator+device must reproduce the
 * uninterrupted run byte for byte — replayed timestamps, derived
 * metrics, and the serialized run-report JSON (DESIGN.md §13).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/binio.hh"
#include "core/experiment.hh"
#include "obs/report.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;
using namespace emmcsim::core;

namespace {

trace::Trace
genTrace(const std::string &name, double scale, std::uint64_t seed = 1)
{
    const workload::AppProfile *p = workload::findProfile(name);
    EXPECT_NE(p, nullptr);
    workload::TraceGenerator g(*p, seed);
    return g.generate(scale);
}

/** Serialize a case's metrics exactly as the CLI's --metrics-json. */
std::string
reportJson(const CaseResult &res)
{
    obs::RunReport r;
    r.setMeta("tool", "snapshot_test");
    r.setMeta("trace", res.traceName);
    r.setMeta("scheme", res.scheme);
    r.addRun("replay", res.obs.metrics);
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

void
expectTracesIdentical(const trace::Trace &a, const trace::Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival) << "record " << i;
        EXPECT_EQ(a[i].serviceStart, b[i].serviceStart)
            << "record " << i;
        EXPECT_EQ(a[i].finish, b[i].finish) << "record " << i;
    }
}

} // namespace

TEST(Snapshot, ResumeIsByteIdenticalToUninterruptedRun)
{
    trace::Trace t = genTrace("Messaging", 0.05);
    ASSERT_GT(t.size(), 0u);

    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.obs.metrics = true;

    CaseResult full = runCase(t, SchemeKind::HPS, opts);

    ExperimentOptions snap_opts = opts;
    snap_opts.snapshotAt = t.duration() / 3;
    CaseResult captured = runCase(t, SchemeKind::HPS, snap_opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    // The capture itself is passive: the capturing run's outcome is
    // the uninterrupted one.
    expectTracesIdentical(captured.replayed, full.replayed);

    CaseResult resumed =
        resumeCase(t, SchemeKind::HPS, captured.snapshotImage, opts);

    expectTracesIdentical(resumed.replayed, full.replayed);
    EXPECT_DOUBLE_EQ(resumed.meanResponseMs, full.meanResponseMs);
    EXPECT_DOUBLE_EQ(resumed.noWaitPct, full.noWaitPct);
    EXPECT_EQ(resumed.requests, full.requests);

    // The strongest form: the serialized run report (every counter,
    // gauge, summary and histogram) is byte-identical.
    EXPECT_EQ(reportJson(resumed), reportJson(full));
}

TEST(Snapshot, ResumePreservesPrefillBaseline)
{
    // spaceUtilization is measured relative to the post-prefill state;
    // the case image carries that baseline, so a resumed run must
    // report the same figure to the last bit. PS8 pads 4KB writes, so
    // the figure is nontrivially below 1.
    trace::Trace t = genTrace("Music", 0.05);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.prefill = 0.3;

    CaseResult full = runCase(t, SchemeKind::PS8, opts);
    EXPECT_LT(full.spaceUtilization, 1.0);

    ExperimentOptions snap_opts = opts;
    snap_opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::PS8, snap_opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    CaseResult resumed =
        resumeCase(t, SchemeKind::PS8, captured.snapshotImage, opts);
    EXPECT_DOUBLE_EQ(resumed.spaceUtilization, full.spaceUtilization);
    EXPECT_DOUBLE_EQ(resumed.writeAmplification,
                     full.writeAmplification);
    expectTracesIdentical(resumed.replayed, full.replayed);
}

TEST(Snapshot, ResumedRunPassesFinalAudit)
{
    trace::Trace t = genTrace("Twitter", 0.05);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::HPS, opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    ExperimentOptions resume_opts;
    resume_opts.capacityScale = opts.capacityScale;
    resume_opts.auditEveryEvents = 10'000;
    CaseResult resumed = resumeCase(t, SchemeKind::HPS,
                                    captured.snapshotImage,
                                    resume_opts);
    EXPECT_GT(resumed.audit.passes, 0u);
    EXPECT_TRUE(resumed.audit.clean())
        << "post-resume audit found " << resumed.audit.totalViolations()
        << " violation(s)";
}

TEST(Snapshot, GarbageImageIsRejected)
{
    trace::Trace t = genTrace("Messaging", 0.02);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    EXPECT_DEATH(resumeCase(t, SchemeKind::HPS, "not a snapshot", opts),
                 "snapshot");
}

TEST(Snapshot, TruncatedImageIsRejected)
{
    trace::Trace t = genTrace("Messaging", 0.02);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::HPS, opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    const std::string truncated = captured.snapshotImage.substr(
        0, captured.snapshotImage.size() / 2);
    ExperimentOptions resume_opts;
    resume_opts.capacityScale = opts.capacityScale;
    EXPECT_DEATH(
        resumeCase(t, SchemeKind::HPS, truncated, resume_opts),
        "snapshot");
}

TEST(SnapshotLayout, InPlaceStrMatchesStr)
{
    BinWriter inner;
    inner.str("inner");
    inner.u64(42);

    BinWriter copied;
    copied.u32(7);
    copied.str(inner.data());

    BinWriter in_place;
    in_place.u32(7);
    const std::size_t slot = in_place.beginStr();
    in_place.str("inner");
    in_place.u64(42);
    in_place.endStr(slot);
    EXPECT_EQ(in_place.data(), copied.data());

    BinReader r(in_place.data());
    EXPECT_EQ(r.u32(), 7u);
    const std::string_view view = r.strView();
    EXPECT_EQ(view, inner.data());
    EXPECT_EQ(view.data(), in_place.data().data() + 12)
        << "strView must point into the image, not at a copy";
    EXPECT_TRUE(r.ok());

    // A length past the end fails the read instead of overrunning.
    BinReader short_read(std::string_view(in_place.data()).substr(0, 14));
    short_read.u32();
    EXPECT_TRUE(short_read.strView().empty());
    EXPECT_FALSE(short_read.ok());
}

/**
 * The case wrapper written in place around the replayer image: magic
 * string, u32 version, the pre-replay FtlStats baseline, then the
 * inner emmcsim-snap v1 image as a u64 length and its bytes.
 */
TEST(SnapshotLayout, CaseWrapperPinned)
{
    trace::Trace t = genTrace("Messaging", 0.02);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::HPS, opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    BinReader r(captured.snapshotImage);
    EXPECT_EQ(r.str(), "emmcsim-case-snap");
    EXPECT_EQ(r.u32(), 1u);
    ftl::FtlStats before;
    r.pod(before);
    // Written before the replay: a fresh device has no host writes.
    EXPECT_EQ(before.hostUnitsWritten, 0u);
    const std::uint64_t inner_len = r.u64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(inner_len, r.remaining());

    BinReader inner(std::string_view(captured.snapshotImage)
                        .substr(captured.snapshotImage.size() -
                                r.remaining()));
    EXPECT_EQ(inner.str(), "emmcsim-snap");
    EXPECT_EQ(inner.u32(), 1u);
    EXPECT_TRUE(inner.ok());
}

TEST(SnapshotLayout, TruncatedWrapperDiesNamed)
{
    trace::Trace t = genTrace("Messaging", 0.02);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::HPS, opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    // The inner length promises more bytes than the image holds.
    const std::string truncated = captured.snapshotImage.substr(
        0, captured.snapshotImage.size() - 1);
    ExperimentOptions resume_opts;
    resume_opts.capacityScale = opts.capacityScale;
    EXPECT_DEATH(resumeCase(t, SchemeKind::HPS, truncated, resume_opts),
                 "\\[fatal\\] corrupt case snapshot header");
}
