#include "check/audit.hh"

#include <utility>

#include "emmc/device.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace emmcsim::check {

std::uint64_t
AuditReport::totalChecks() const
{
    std::uint64_t n = 0;
    for (const CheckerSummary &c : checkers)
        n += c.checksRun;
    return n;
}

std::uint64_t
AuditReport::totalViolations() const
{
    std::uint64_t n = 0;
    for (const CheckerSummary &c : checkers)
        n += c.failures;
    return n;
}

void
Auditor::addChecker(std::string name, Checker fn)
{
    EMMCSIM_ASSERT(fn != nullptr, "null checker registered");
    CheckerSummary summary;
    summary.name = name;
    report_.checkers.push_back(std::move(summary));
    checkers_.push_back(Named{std::move(name), std::move(fn)});
}

std::uint64_t
Auditor::runAll()
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < checkers_.size(); ++i) {
        CheckContext ctx(checkers_[i].name);
        checkers_[i].fn(ctx);

        CheckerSummary &summary = report_.checkers[i];
        summary.checksRun += ctx.checksRun();
        summary.failures += ctx.failures();
        for (const std::string &v : ctx.violations()) {
            if (summary.violations.size() >= CheckContext::kMaxRecorded)
                break;
            summary.violations.push_back(v);
        }
        failed += ctx.failures();
    }
    ++report_.passes;
    return failed;
}

void
registerDeviceCheckers(Auditor &auditor, const emmc::EmmcDevice &device)
{
    auditor.addChecker("ftl.mapping-bijection",
                       [&device](CheckContext &ctx) {
                           checkMappingBijection(device.ftl(), ctx);
                       });
    auditor.addChecker("ftl.unit-conservation",
                       [&device](CheckContext &ctx) {
                           checkUnitConservation(device.ftl(), ctx);
                       });
    auditor.addChecker("flash.pool-accounting",
                       [&device](CheckContext &ctx) {
                           checkArrayAccounting(device.array(), ctx);
                       });
    auditor.addChecker("emmc.request-lifecycle",
                       [&device](CheckContext &ctx) {
                           checkDeviceLifecycle(device, ctx);
                       });
    auditor.addChecker("emmc.phase-conservation",
                       [&device](CheckContext &ctx) {
                           checkPhaseConservation(device, ctx);
                       });
    auditor.addChecker("flash.retired-blocks",
                       [&device](CheckContext &ctx) {
                           checkRetiredBlocks(device.ftl(), ctx);
                       });
    auditor.addChecker("ftl.spare-accounting",
                       [&device](CheckContext &ctx) {
                           checkSpareAccounting(device.ftl(), ctx);
                       });
    auditor.addChecker("ftl.journal-accounting",
                       [&device](CheckContext &ctx) {
                           checkJournalAccounting(device.ftl(), ctx);
                       });
    auditor.addChecker("ftl.pageseq-consistency",
                       [&device](CheckContext &ctx) {
                           checkPageSeqConsistency(device.ftl(), ctx);
                       });
}

void
registerSimulatorCheckers(Auditor &auditor,
                          const sim::Simulator &simulator)
{
    auditor.addChecker("sim.event-queue",
                       [&simulator](CheckContext &ctx) {
                           checkEventQueue(simulator, ctx);
                       });
}

DeviceAuditor::DeviceAuditor(sim::Simulator &simulator,
                             const emmc::EmmcDevice &device,
                             const AuditOptions &opts)
    : sim_(simulator)
{
    registerSimulatorCheckers(auditor_, sim_);
    registerDeviceCheckers(auditor_, device);

    if (opts.everyEvents > 0) {
        simHook_ = sim_.addPostEventHook(
            [this](const sim::Simulator &) { auditor_.runAll(); },
            opts.everyEvents);
    }
}

DeviceAuditor::~DeviceAuditor()
{
    detach();
}

void
DeviceAuditor::detach()
{
    if (simHook_ != 0) {
        sim_.removePostEventHook(simHook_);
        simHook_ = 0;
    }
}

AuditReport
auditNow(const sim::Simulator &simulator, const emmc::EmmcDevice &device)
{
    Auditor auditor;
    registerSimulatorCheckers(auditor, simulator);
    registerDeviceCheckers(auditor, device);
    auditor.runAll();
    return auditor.report();
}

} // namespace emmcsim::check
