#include "fault/injector.hh"

#include <cmath>

#include "sim/logging.hh"

namespace emmcsim::fault {

void
FaultConfig::validate() const
{
    if (baseRber < 0.0 || baseRber >= 1.0)
        sim::fatal("fault: baseRber must be in [0, 1)");
    if (wearRberFactor < 0.0 || retentionRberPerAge < 0.0)
        sim::fatal("fault: RBER growth factors must be non-negative");
    if (eccRberThreshold <= 0.0)
        sim::fatal("fault: eccRberThreshold must be positive");
    if (retryThresholdGain <= 1.0)
        sim::fatal("fault: retryThresholdGain must exceed 1");
    if (readRetryLatency < 0)
        sim::fatal("fault: readRetryLatency must be non-negative");
    if (failShape <= 0.0)
        sim::fatal("fault: failShape must be positive");
    if (programFailProb < 0.0 || programFailProb > 1.0 ||
        eraseFailProb < 0.0 || eraseFailProb > 1.0)
        sim::fatal("fault: failure probabilities must be in [0, 1]");
    if (wearFailFactor < 0.0)
        sim::fatal("fault: wearFailFactor must be non-negative");
}

FaultInjector::FaultInjector(const FaultConfig &cfg)
    : cfg_(cfg), engine_(cfg.seed)
{
    cfg_.validate();
}

double
FaultInjector::draw()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
FaultInjector::rberAt(std::uint32_t erase_count,
                      std::uint64_t block_age) const
{
    return cfg_.baseRber *
               (1.0 + cfg_.wearRberFactor *
                          static_cast<double>(erase_count)) +
           cfg_.retentionRberPerAge * static_cast<double>(block_age);
}

ReadFault
FaultInjector::onRead(std::uint32_t erase_count, std::uint64_t block_age)
{
    if (!cfg_.enabled)
        return {};
    ++stats_.readsEvaluated;

    if (forcedReads_ > 0) {
        --forcedReads_;
        ++stats_.forcedFaults;
        ++stats_.uncorrectableReads;
        stats_.retryRounds += cfg_.readRetryLevels;
        return ReadFault{cfg_.readRetryLevels, true};
    }

    const double rber = rberAt(erase_count, block_age);
    double threshold = cfg_.eccRberThreshold;
    // Level 0 is the default read; levels 1..N are the retry ladder,
    // each with a higher effective ECC threshold. A level at or below
    // its threshold succeeds outright (no draw), above it the page
    // survives with probability exp(-failShape * (rber/thresh - 1)).
    for (std::uint32_t level = 0; level <= cfg_.readRetryLevels;
         ++level) {
        bool ok = rber <= threshold;
        if (!ok) {
            const double p_fail = 1.0 - std::exp(-cfg_.failShape *
                                                 (rber / threshold -
                                                  1.0));
            ok = draw() >= p_fail;
        }
        if (ok) {
            stats_.retryRounds += level;
            if (level == 0)
                ++stats_.cleanReads;
            else
                ++stats_.correctedReads;
            return ReadFault{level, false};
        }
        threshold *= cfg_.retryThresholdGain;
    }
    stats_.retryRounds += cfg_.readRetryLevels;
    ++stats_.uncorrectableReads;
    return ReadFault{cfg_.readRetryLevels, true};
}

bool
FaultInjector::programFails(std::uint32_t erase_count)
{
    if (!cfg_.enabled)
        return false;
    ++stats_.programsEvaluated;
    if (forcedPrograms_ > 0) {
        --forcedPrograms_;
        ++stats_.forcedFaults;
        ++stats_.programFailures;
        return true;
    }
    if (cfg_.programFailProb <= 0.0)
        return false;
    const double p = std::min(
        1.0, cfg_.programFailProb *
                 (1.0 + cfg_.wearFailFactor *
                            static_cast<double>(erase_count)));
    if (draw() < p) {
        ++stats_.programFailures;
        return true;
    }
    return false;
}

bool
FaultInjector::eraseFails(std::uint32_t erase_count)
{
    if (!cfg_.enabled)
        return false;
    ++stats_.erasesEvaluated;
    if (forcedErases_ > 0) {
        --forcedErases_;
        ++stats_.forcedFaults;
        ++stats_.eraseFailures;
        return true;
    }
    if (cfg_.eraseFailProb <= 0.0)
        return false;
    const double p = std::min(
        1.0, cfg_.eraseFailProb *
                 (1.0 + cfg_.wearFailFactor *
                            static_cast<double>(erase_count)));
    if (draw() < p) {
        ++stats_.eraseFailures;
        return true;
    }
    return false;
}

template <typename Self, typename IO>
void
FaultInjector::fields(Self &self, IO &io)
{
    // mt19937_64 state round-trips exactly through its stream
    // operators (decimal words, locale-independent "C" formatting).
    io.text(self.engine_);
    io.pod(self.stats_);
    io.pod(self.forcedReads_);
    io.pod(self.forcedPrograms_);
    io.pod(self.forcedErases_);
}

void
FaultInjector::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
FaultInjector::load(core::BinReader &r)
{
    fields(*this, r);
}

} // namespace emmcsim::fault
