/**
 * @file
 * PowerManager: the eMMC low-power state machine (Characteristic 4).
 *
 * The paper observes that an eMMC device drops into a low-power mode
 * when no request arrives within its power-saving threshold, and that
 * a newly arriving request then pays a warm-up latency — which is why
 * low-rate applications (Idle, CallIn, CallOut, YouTube) show *higher*
 * mean service times than busy ones.
 *
 * The manager is timestamp-driven: the device reports when it goes
 * idle and asks, at the next service start, what wake penalty applies.
 */

#ifndef EMMCSIM_EMMC_POWER_HH
#define EMMCSIM_EMMC_POWER_HH

#include <cstdint>

#include "core/binio.hh"
#include "sim/types.hh"

namespace emmcsim::emmc {

/** Power-management configuration. */
struct PowerConfig
{
    /** Master switch; disabled for the Fig 8 device comparison. */
    bool enabled = false;
    /** Idle time after which the device enters low-power mode. */
    sim::Time idleThreshold = sim::milliseconds(200);
    /** Warm-up latency paid by the request that wakes the device. */
    sim::Time wakeLatency = sim::milliseconds(5);
    /** Active-state power draw in milliwatts (for energy estimates). */
    double activeMw = 200.0;
    /** Low-power-state draw in milliwatts. */
    double lowPowerMw = 1.0;
};

/** Counters exposed by the power manager. */
struct PowerStats
{
    std::uint64_t wakeups = 0;        ///< low-power -> active transitions
    sim::Time lowPowerTime = 0;       ///< total time spent in low power
    sim::Time activeTime = 0;         ///< total time spent active
};

/** Two-state (active / low-power) device power model. */
class PowerManager
{
  public:
    explicit PowerManager(const PowerConfig &cfg) : cfg_(cfg) {}

    /**
     * Wake penalty for a request starting service at @p now, given the
     * device has been idle since the last completion. Also accounts
     * state-residency time. Returns 0 when disabled or still warm.
     */
    sim::Time wakePenalty(sim::Time now);

    /** Report that the device finished all work at @p now. */
    void onIdle(sim::Time now) { idleSince_ = now; }

    /** @return true when the device would be in low power at @p now. */
    bool inLowPower(sim::Time now) const;

    /** Estimated energy in millijoules over the accounted intervals. */
    double energyMj() const;

    const PowerConfig &config() const { return cfg_; }
    const PowerStats &stats() const { return stats_; }

    /** @name Snapshot (counters plus the idle timestamp). @{ */
    void save(core::BinWriter &w) const { fields(*this, w); }
    void load(core::BinReader &r) { fields(*this, r); }
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void
    fields(Self &self, IO &io)
    {
        io.pod(self.stats_);
        io.pod(self.idleSince_);
    }

    PowerConfig cfg_;
    PowerStats stats_;
    sim::Time idleSince_ = 0;
};

} // namespace emmcsim::emmc

#endif // EMMCSIM_EMMC_POWER_HH
