/**
 * @file
 * Core-module tests: scheme factory, report printer, and experiment
 * options plumbing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scheme.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;
using namespace emmcsim::core;

TEST(Scheme, NamesAndOrder)
{
    ASSERT_EQ(allSchemes().size(), 3u);
    EXPECT_EQ(schemeName(allSchemes()[0]), "4PS");
    EXPECT_EQ(schemeName(allSchemes()[1]), "8PS");
    EXPECT_EQ(schemeName(allSchemes()[2]), "HPS");
}

TEST(Scheme, ConfigsMatchKind)
{
    EXPECT_EQ(schemeConfig(SchemeKind::PS4).geometry.pools.size(), 1u);
    EXPECT_EQ(schemeConfig(SchemeKind::PS8).geometry.pools[0].pageBytes,
              8192u);
    EXPECT_EQ(schemeConfig(SchemeKind::HPS).geometry.pools.size(), 2u);
}

TEST(Scheme, DistributorsMatchKind)
{
    // The write split each Table V layout implies.
    auto split = [](SchemeKind kind) {
        return ftl::WriteSplit(schemeConfig(kind).geometry);
    };
    // 4PS: one-unit pages only.
    EXPECT_EQ(split(SchemeKind::PS4).bulkUnits, 1u);
    EXPECT_EQ(split(SchemeKind::PS4).tailUnits, 1u);
    // 8PS: two-unit pages, the odd tail padded into the same pool.
    EXPECT_EQ(split(SchemeKind::PS8).bulkUnits, 2u);
    EXPECT_EQ(split(SchemeKind::PS8).tailPool, 0u);
    EXPECT_EQ(split(SchemeKind::PS8).tailUnits, 2u);
    // HPS: pairs to the 8KB pool, the odd tail to the 4KB pool.
    EXPECT_EQ(split(SchemeKind::HPS).bulkPool, emmc::kHps8kPool);
    EXPECT_EQ(split(SchemeKind::HPS).tailPool, emmc::kHps4kPool);
    EXPECT_EQ(split(SchemeKind::HPS).tailUnits, 1u);
}

TEST(SchemeDeath, MakeDeviceRejectsAnotherSchemesLayout)
{
    sim::Simulator s;
    EXPECT_DEATH(makeDevice(s, SchemeKind::PS4,
                            schemeConfig(SchemeKind::HPS)),
                 "pool page sizes");
    EXPECT_DEATH(makeDevice(s, SchemeKind::PS4,
                            schemeConfig(SchemeKind::PS8)),
                 "pool page sizes");
}

TEST(Scheme, MakeDeviceBuildsWorkingDevice)
{
    sim::Simulator s;
    auto dev = makeDevice(s, SchemeKind::HPS);
    EXPECT_EQ(dev->config().name, "HPS");
    EXPECT_GT(dev->ftl().logicalUnits(), 0u);
}

TEST(ExperimentOptions, ApplyTogglesConfig)
{
    ExperimentOptions opts;
    opts.powerMode = true;
    opts.ramBuffer = true;
    opts.ramBufferUnits = 77;
    opts.packing = false;
    opts.idleGc = true;
    opts.multiplane = true;
    emmc::EmmcConfig cfg =
        applyOptions(schemeConfig(SchemeKind::PS4), opts);
    EXPECT_TRUE(cfg.power.enabled);
    EXPECT_TRUE(cfg.buffer.enabled);
    EXPECT_EQ(cfg.buffer.capacityUnits, 77u);
    EXPECT_FALSE(cfg.packing.enabled);
    EXPECT_TRUE(cfg.idleGcEnabled);
    EXPECT_TRUE(cfg.multiplane);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"Name", "Value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "22"});
    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("Name"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(text.find("----"), std::string::npos);
    // All rows begin at column 0 and "Value" column aligns.
    std::istringstream is(text);
    std::string line;
    std::getline(is, line);
    auto value_col = line.find("Value");
    std::getline(is, line); // separator
    std::getline(is, line);
    EXPECT_EQ(line.find('1'), value_col);
}

TEST(TablePrinter, RowCount)
{
    TablePrinter t({"A"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"x"});
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TablePrinterDeath, RowWidthMismatch)
{
    TablePrinter t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Fmt, Formats)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(std::uint64_t{42}), "42");
}

TEST(Scheme, ExtendedSchemesIncludeHslc)
{
    ASSERT_EQ(extendedSchemes().size(), 4u);
    EXPECT_EQ(schemeName(extendedSchemes()[3]), "HSLC");
    // HSLC splits as HPS does: only the 4KB pool's timing differs.
    const ftl::WriteSplit hslc(schemeConfig(SchemeKind::HSLC).geometry);
    EXPECT_EQ(hslc.bulkPool, emmc::kHps8kPool);
    EXPECT_EQ(hslc.tailPool, emmc::kHps4kPool);
}

TEST(ExperimentFaults, AgedDeviceUnderSeededFaultsAuditsClean)
{
    // An aged, shrunken device garbage-collects, so copybacks and
    // erases run through the fault model next to host programs.
    const workload::AppProfile *p = workload::findProfile("Installing");
    ASSERT_NE(p, nullptr);
    workload::TraceGenerator gen(*p, /*seed=*/1);
    trace::Trace t = gen.generate(/*scale=*/0.05);

    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.prefill = 0.7;
    opts.fault.enabled = true;
    opts.fault.seed = 11;
    opts.fault.baseRber = 3e-4;
    opts.fault.programFailProb = 1e-3;
    opts.fault.eraseFailProb = 1e-3;
    opts.auditEveryEvents = 500;
    opts.obs.metrics = true;
    CaseResult r = runCase(t, SchemeKind::PS4, opts);

    EXPECT_GT(r.gcBlockingRounds, 0u);
    EXPECT_GT(r.obs.metrics.counterValue("flash.copyback_reads"), 0u);
    EXPECT_GT(r.obs.metrics.counterValue("flash.copyback_programs"), 0u);
    EXPECT_GT(r.totalErases, 0u);
    EXPECT_GT(r.programFailures + r.eraseFailures, 0u);
    EXPECT_GT(r.correctedReads, 0u);
    EXPECT_FALSE(r.deviceReadOnly);
    EXPECT_TRUE(r.audit.clean())
        << r.audit.totalViolations() << " violation(s)";
    EXPECT_GE(r.audit.passes, 2u) << "periodic audits never fired";
}

TEST(ExperimentFaults, AgedDeviceOutOfRelocationSpaceGoesReadOnly)
{
    // Program and erase failures on an aged, shrunken device eat the
    // free pages a blocking GC round relocates into. When a round runs
    // out mid-collection it must end and leave the victim's remaining
    // live units in place, so the device degrades to read-only instead
    // of dying in the allocator.
    const workload::AppProfile *p = workload::findProfile("Twitter");
    ASSERT_NE(p, nullptr);
    workload::TraceGenerator gen(*p, /*seed=*/1);
    trace::Trace t = gen.generate(/*scale=*/0.05);

    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.prefill = 0.7;
    opts.fault.enabled = true;
    opts.fault.seed = 11;
    opts.fault.baseRber = 3e-4;
    opts.fault.programFailProb = 1e-2;
    opts.fault.eraseFailProb = 2e-2;
    opts.auditEveryEvents = 500;
    CaseResult r = runCase(t, SchemeKind::HPS, opts);

    EXPECT_TRUE(r.deviceReadOnly);
    EXPECT_GT(r.gcBlockingRounds, 0u);
    EXPECT_GT(r.eraseFailures, 0u);
    EXPECT_TRUE(r.audit.clean())
        << r.audit.totalViolations() << " violation(s)";
    EXPECT_GE(r.audit.passes, 2u) << "periodic audits never fired";
}
