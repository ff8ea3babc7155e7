/**
 * @file
 * Audit subsystem: pluggable invariant checkers run from the
 * simulator's and device's debug hooks.
 *
 * An Auditor owns an ordered set of named checkers (see
 * check/invariants.hh) and accumulates their outcomes into an
 * AuditReport across passes. DeviceAuditor wires a full set of
 * checkers for one (simulator, device) pair into the runtime hooks:
 * every N executed events, at command completion, or after every FTL
 * mutation, plus on-demand full audits. The CLI's --audit flag and
 * the tests/check suite are its two consumers.
 */

#ifndef EMMCSIM_CHECK_AUDIT_HH
#define EMMCSIM_CHECK_AUDIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "sim/simulator.hh"

namespace emmcsim::emmc {
class EmmcDevice;
}

namespace emmcsim::check {

/** Accumulated outcome of one checker across audit passes. */
struct CheckerSummary
{
    std::string name;
    std::uint64_t checksRun = 0;
    std::uint64_t failures = 0;
    /** First recorded failure details (capped per checker). */
    std::vector<std::string> violations;
};

/** Aggregated outcome of every audit pass so far. */
struct AuditReport
{
    /** Audit passes executed (each runs every registered checker). */
    std::uint64_t passes = 0;
    std::vector<CheckerSummary> checkers;

    /** Predicates evaluated across all passes and checkers. */
    std::uint64_t totalChecks() const;

    /** Predicates failed across all passes and checkers. */
    std::uint64_t totalViolations() const;

    /** @return true when no checker ever failed. */
    bool clean() const { return totalViolations() == 0; }
};

/** An ordered collection of named invariant checkers. */
class Auditor
{
  public:
    /** A checker body: evaluate predicates into the context. */
    using Checker = std::function<void(CheckContext &)>;

    /** Register @p fn under @p name (runs in registration order). */
    void addChecker(std::string name, Checker fn);

    std::size_t checkerCount() const { return checkers_.size(); }

    /**
     * Run every registered checker once and fold the outcomes into
     * the report.
     * @return number of predicates that failed during this pass.
     */
    std::uint64_t runAll();

    const AuditReport &report() const { return report_; }

  private:
    struct Named
    {
        std::string name;
        Checker fn;
    };
    std::vector<Named> checkers_;
    AuditReport report_;
};

/**
 * Register the standard cross-layer checkers for @p device: FTL
 * mapping bijection, valid-unit conservation, per-pool free-space
 * accounting, and request-lifecycle bookkeeping. The device reference
 * is captured and must outlive the auditor.
 */
void registerDeviceCheckers(Auditor &auditor,
                            const emmc::EmmcDevice &device);

/**
 * Register the simulator-kernel checkers: event-queue integrity and
 * clock monotonicity. The simulator reference is captured and must
 * outlive the auditor.
 */
void registerSimulatorCheckers(Auditor &auditor,
                               const sim::Simulator &simulator);

/** When DeviceAuditor triggers audits beyond explicit calls. */
struct AuditOptions
{
    /**
     * Full audit every N executed events (0 disables). 1 audits after
     * every event, command completions included; exhaustive but slow,
     * meant for small test devices.
     */
    std::uint64_t everyEvents = 0;
};

/**
 * Drives periodic audits of one (simulator, device) pair through a
 * simulator post-event hook. Installs the hook on construction and
 * removes it on destruction or detach().
 */
class DeviceAuditor
{
  public:
    DeviceAuditor(sim::Simulator &simulator, const emmc::EmmcDevice &device,
                  const AuditOptions &opts = {});
    ~DeviceAuditor();

    DeviceAuditor(const DeviceAuditor &) = delete;
    DeviceAuditor &operator=(const DeviceAuditor &) = delete;

    /**
     * Run one full audit pass immediately (also used as the final
     * audit after a replay drains).
     * @return number of predicates that failed during this pass.
     */
    std::uint64_t runFullAudit() { return auditor_.runAll(); }

    const AuditReport &report() const { return auditor_.report(); }

    /** Remove the installed hook (idempotent). */
    void detach();

  private:
    sim::Simulator &sim_;
    Auditor auditor_;
    /** Simulator hook handle; 0 when not attached. */
    sim::Simulator::HookId simHook_ = 0;
};

/**
 * One-shot convenience: audit @p device and @p simulator once with
 * the standard checkers and return the report.
 */
AuditReport auditNow(const sim::Simulator &simulator,
                     const emmc::EmmcDevice &device);

} // namespace emmcsim::check

#endif // EMMCSIM_CHECK_AUDIT_HH
