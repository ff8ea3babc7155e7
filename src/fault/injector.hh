/**
 * @file
 * FaultInjector: seeded, deterministic NAND fault generation.
 *
 * Real NAND misbehaves in three ways a controller must survive: read
 * bit-errors (raw bit-error rate grows with wear and retention age;
 * the ECC engine corrects up to a threshold, a read-retry ladder with
 * shifted sensing levels recovers more, and past the last level the
 * data is lost), program-status failures (the page reports a program
 * fail and must be re-issued elsewhere), and erase failures (the block
 * is worn out and must be retired). The injector models all three as a
 * pure function of (erase count, block age, one RNG stream), so every
 * run is reproducible from a single seed.
 *
 * Neutrality contract: a disabled injector (FaultConfig::enabled ==
 * false, the default) draws nothing and reports nothing, and the
 * device never attaches it to the flash array — the simulated timing
 * and results of a fault-free run are bit-identical to a build
 * without this subsystem.
 */

#ifndef EMMCSIM_FAULT_INJECTOR_HH
#define EMMCSIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <random>

#include "core/binio.hh"
#include "sim/types.hh"

namespace emmcsim::fault {

/** Tunable parameters of the NAND fault model. */
struct FaultConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /** Seed for the injector's private RNG stream. */
    std::uint64_t seed = 1;

    /**
     * Raw bit-error rate of a fresh, freshly-written page. The MLC
     * floor is around 1e-6..1e-4 depending on node; 0 disables read
     * errors entirely (program/erase faults may still fire).
     */
    double baseRber = 0.0;

    /** RBER multiplier per erase cycle: rber *= 1 + f * eraseCount. */
    double wearRberFactor = 1e-3;

    /**
     * Additive RBER per unit of block age (allocation sequence ticks
     * since the block was last programmed) — the retention term.
     */
    double retentionRberPerAge = 0.0;

    /**
     * RBER the on-die ECC corrects transparently. At or below this the
     * default read succeeds without a single retry (and without an RNG
     * draw, keeping below-threshold reads deterministic and cheap).
     */
    double eccRberThreshold = 2e-4;

    /**
     * Read-retry ladder depth: number of shifted-threshold re-reads
     * attempted after the default read fails. Each level l (1-based)
     * tolerates eccRberThreshold * retryThresholdGain^l.
     */
    std::uint32_t readRetryLevels = 4;

    /** Per-level gain of the ladder's effective ECC threshold. */
    double retryThresholdGain = 1.6;

    /**
     * Extra array-busy time charged per retry round (one full page
     * re-sense with shifted read voltages; same order as the Table V
     * read latency).
     */
    sim::Time readRetryLatency = sim::microseconds(120);

    /**
     * Shape of the failure probability above a level's threshold:
     * pFail = 1 - exp(-failShape * (rber / threshold - 1)). Larger
     * values make the correctable->uncorrectable transition sharper.
     */
    double failShape = 1.0;

    /** Program-status failure probability for a fresh block. */
    double programFailProb = 0.0;

    /** Erase failure probability for a fresh block. */
    double eraseFailProb = 0.0;

    /**
     * Wear scaling of program/erase failures:
     * p *= 1 + wearFailFactor * eraseCount.
     */
    double wearFailFactor = 0.0;

    /** sim::fatal on out-of-range parameters. */
    void validate() const;
};

/** Outcome of the read-path fault evaluation for one page read. */
struct ReadFault
{
    /** Retry rounds taken (0 = default read succeeded). */
    std::uint32_t retries = 0;
    /** True when the last ladder level also failed: data is lost. */
    bool uncorrectable = false;
};

/** Injector-side counters (per device). */
struct FaultStats
{
    std::uint64_t readsEvaluated = 0;
    /** Default read succeeded without retries. */
    std::uint64_t cleanReads = 0;
    /** Reads recovered by the retry ladder (>= 1 retry, then success). */
    std::uint64_t correctedReads = 0;
    /** Reads the full ladder could not recover. */
    std::uint64_t uncorrectableReads = 0;
    /** Total retry rounds across all reads. */
    std::uint64_t retryRounds = 0;
    std::uint64_t programsEvaluated = 0;
    std::uint64_t programFailures = 0;
    std::uint64_t erasesEvaluated = 0;
    std::uint64_t eraseFailures = 0;
    /** Faults planted through the forceNext*() test hooks. */
    std::uint64_t forcedFaults = 0;
};

/**
 * Deterministic fault source for one flash array. All draws come from
 * one mt19937_64 stream in simulation order, so a fixed (config, seed,
 * workload) triple replays the exact same fault sequence.
 */
class FaultInjector
{
  public:
    /** @param cfg Validated on construction. */
    explicit FaultInjector(const FaultConfig &cfg);

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled; }

    /**
     * Evaluate the read-path model for one page read.
     *
     * @param erase_count Erase cycles of the block holding the page.
     * @param block_age   Pool allocation ticks since the block was
     *                    last programmed (retention proxy).
     */
    ReadFault onRead(std::uint32_t erase_count, std::uint64_t block_age);

    /** @return true when this page program reports a status failure. */
    bool programFails(std::uint32_t erase_count);

    /** @return true when this block erase fails (block worn out). */
    bool eraseFails(std::uint32_t erase_count);

    /** The wear/retention RBER curve (pure; no RNG). */
    double rberAt(std::uint32_t erase_count,
                  std::uint64_t block_age) const;

    /** @name Test hooks: plant the next N faults deterministically.
     * Forced faults consume no RNG draws, so planting one does not
     * shift the stream seen by later probabilistic draws. @{ */
    void forceReadFailures(std::uint32_t n) { forcedReads_ += n; }
    void forceProgramFailures(std::uint32_t n) { forcedPrograms_ += n; }
    void forceEraseFailures(std::uint32_t n) { forcedErases_ += n; }
    /** @} */

    const FaultStats &stats() const { return stats_; }

    /** @name Snapshot image (core/binio.hh).
     * The RNG engine state round-trips exactly (stream operators), so
     * a restored run draws the identical fault sequence. @{ */
    void save(core::BinWriter &w) const;
    void load(core::BinReader &r);
    /** @} */

  private:
    /** Uniform draw in [0, 1). */
    double draw();

    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void fields(Self &self, IO &io);

    FaultConfig cfg_;
    std::mt19937_64 engine_;
    FaultStats stats_;
    std::uint32_t forcedReads_ = 0;
    std::uint32_t forcedPrograms_ = 0;
    std::uint32_t forcedErases_ = 0;
};

} // namespace emmcsim::fault

#endif // EMMCSIM_FAULT_INJECTOR_HH
