#include "obs/attribution.hh"

#include <algorithm>
#include <cstddef>

#include "emmc/device.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace emmcsim::obs {

namespace {

/** Response-time quantiles the tail slices are cut at. */
constexpr std::array<double, 4> kTailQuantiles = {50.0, 95.0, 99.0, 99.9};

/** Nearest-rank percentile of the ascending @p sorted, in ms. */
double
percentileMs(const std::vector<sim::Time> &sorted, double p)
{
    return sim::toMilliseconds(sim::percentile<sim::Time>(sorted, p));
}

} // namespace

AttributionRecorder::AttributionRecorder(std::size_t slowest_k)
    : slowestK_(slowest_k)
{
}

void
AttributionRecorder::onRequest(const emmc::CompletedRequest &completed)
{
    Rec rec;
    rec.id = completed.request.id;
    rec.arrival = completed.request.arrival;
    rec.response = completed.finish - completed.request.arrival;
    rec.ns = completed.phases.ns;
    rec.write = completed.request.write;
    recs_.push_back(rec);
}

void
AttributionRecorder::noteDevice(const emmc::DeviceStats &stats,
                                const emmc::SpoStats &spo)
{
    ledgerViolations_ = stats.ledgerViolations;
    mount_.powerCuts = spo.powerCuts;
    mount_.totalMs = sim::toMilliseconds(spo.recoveryTime);
    mount_.checkpointLoadMs = sim::toMilliseconds(spo.recoveryCheckpointLoad);
    mount_.journalReplayMs = sim::toMilliseconds(spo.recoveryJournalReplay);
    mount_.scanMs = sim::toMilliseconds(spo.recoveryScan);
    mount_.reEraseMs = sim::toMilliseconds(spo.recoveryReErase);
    mount_.checkpointWriteMs =
        sim::toMilliseconds(spo.recoveryCheckpointWrite);
}

AttributionSummary
AttributionRecorder::summarize() const
{
    AttributionSummary out;
    out.enabled = true;
    out.requests = recs_.size();
    out.ledgerViolations = ledgerViolations_;
    out.mount = mount_;
    if (recs_.empty())
        return out;

    const std::size_t n = recs_.size();
    const double dn = static_cast<double>(n);

    // One reusable sort buffer: per-phase distributions, then the
    // response distribution and the tail thresholds.
    std::vector<sim::Time> sorted(n);

    auto fillDist = [&](PhaseDist &d, auto &&pick) {
        sim::Time total = 0;
        sim::Time max = 0;
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const sim::Time v = pick(recs_[i]);
            sorted[i] = v;
            total += v;
            max = std::max(max, v);
            hits += v > 0 ? 1 : 0;
        }
        std::sort(sorted.begin(), sorted.end());
        d.hits = hits;
        d.totalMs = sim::toMilliseconds(total);
        d.meanMs = d.totalMs / dn;
        d.maxMs = sim::toMilliseconds(max);
        d.p50Ms = percentileMs(sorted, 50.0);
        d.p95Ms = percentileMs(sorted, 95.0);
        d.p99Ms = percentileMs(sorted, 99.0);
        d.p999Ms = percentileMs(sorted, 99.9);
    };

    for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
        fillDist(out.phases[p], [p](const Rec &r) { return r.ns[p]; });
    fillDist(out.response, [](const Rec &r) { return r.response; });
    // `sorted` now holds ascending response times; tail thresholds
    // come from the same nearest-rank rule as the printed p-values.
    out.tails.reserve(kTailQuantiles.size());
    for (double q : kTailQuantiles) {
        TailSlice slice;
        slice.quantile = q;
        const sim::Time threshold = sim::percentile<sim::Time>(sorted, q);
        slice.thresholdMs = sim::toMilliseconds(threshold);
        std::array<sim::Time, emmc::kPhaseCount> sums{};
        for (const Rec &r : recs_) {
            if (r.response < threshold)
                continue;
            ++slice.requests;
            for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
                sums[p] += r.ns[p];
        }
        EMMCSIM_ASSERT(slice.requests > 0,
                       "tail slice threshold excluded every request");
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p) {
            slice.meanPhaseMs[p] = sim::toMilliseconds(sums[p]) /
                                   static_cast<double>(slice.requests);
        }
        out.tails.push_back(slice);
    }

    // Slowest K, worst first; ties broken by id so the report is
    // deterministic across STL implementations.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    const std::size_t k = std::min(slowestK_, n);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [this](std::size_t a, std::size_t b) {
                          if (recs_[a].response != recs_[b].response)
                              return recs_[a].response > recs_[b].response;
                          return recs_[a].id < recs_[b].id;
                      });
    out.slowest.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        const Rec &r = recs_[order[i]];
        SlowRequest s;
        s.id = r.id;
        s.arrival = r.arrival;
        s.write = r.write;
        s.responseMs = sim::toMilliseconds(r.response);
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
            s.phaseMs[p] = sim::toMilliseconds(r.ns[p]);
        out.slowest.push_back(s);
    }
    return out;
}

} // namespace emmcsim::obs
