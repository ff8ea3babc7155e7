/**
 * @file
 * obs::DeviceObserver: one-call wiring of the observability layer to a
 * simulator + device pair.
 *
 * The observer owns the metrics Registry, the windowed Sampler and the
 * RequestTracer, installs the single device trace hook (fanning out to
 * the tracer and its own latency histograms) and the flash op hook,
 * and drives the sampler from a simulator post-event hook. Tools
 * construct one observer per run when any observability flag is on;
 * with no observer constructed, every hook stays null and the
 * simulation executes the exact pre-obs code path.
 *
 * Call finish() after the run completes and *before* the device is
 * destroyed: it closes the sampler series, detaches every hook and
 * takes the final value snapshot, which (unlike the registry) stays
 * valid after the device dies.
 */

#ifndef EMMCSIM_OBS_OBSERVER_HH
#define EMMCSIM_OBS_OBSERVER_HH

#include <memory>

#include "obs/attribution.hh"
#include "obs/device_metrics.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"

namespace emmcsim::emmc {
class EmmcDevice;
}
namespace emmcsim::host {
struct ReplayStats;
}

namespace emmcsim::obs {

/**
 * What to observe for one run (all off by default, leaving the replay
 * byte-identical to one without the observability layer).
 */
struct ObserverOptions
{
    /** Register metrics and take an end-of-run snapshot. */
    bool metrics = false;
    /** Record request / flash-op spans for the Chrome trace export. */
    bool traceSpans = false;
    /**
     * Sampler window in simulated ns; > 0 enables windowed series
     * (implies metrics).
     */
    sim::Time sampleWindow = 0;
    /**
     * Record per-request phase ledgers and aggregate them into the
     * report's "attribution" section.
     */
    bool attribution = false;

    bool any() const
    {
        return metrics || traceSpans || attribution || sampleWindow > 0;
    }
};

/** Wires registry + sampler + tracer to one simulator and device. */
class DeviceObserver
{
  public:
    /**
     * Install hooks per @p opts. The simulator and device must
     * outlive the observer or finish() must be called first.
     * @p replayStats (borrowed; may be null) adds the host-side replay
     * counters under "host.replay.*" in metrics mode.
     */
    DeviceObserver(sim::Simulator &simulator, emmc::EmmcDevice &device,
                   const ObserverOptions &opts,
                   const host::ReplayStats *replayStats = nullptr);

    DeviceObserver(const DeviceObserver &) = delete;
    DeviceObserver &operator=(const DeviceObserver &) = delete;

    /** Detaches everything (finish() if not already called). */
    ~DeviceObserver();

    /**
     * Close the run: final sampler window, hook removal, end-of-run
     * metrics snapshot. Idempotent.
     */
    void finish();

    /** The live registry (metrics mode; empty otherwise). */
    Registry &registry() { return registry_; }
    const Registry &registry() const { return registry_; }

    /** The span recorder (trace mode; empty otherwise). */
    RequestTracer &tracer() { return tracer_; }
    const RequestTracer &tracer() const { return tracer_; }

    /** End-of-run values; valid after finish(). */
    const MetricsSnapshot &snapshot() const { return snapshot_; }

    /**
     * Aggregated latency attribution; enabled only in attribution
     * mode, and fully populated after finish().
     */
    const AttributionSummary &attribution() const { return attribution_; }

    /** Windowed series; empty when no sampler ran. */
    SeriesSet series() const;

    bool tracing() const { return opts_.traceSpans; }
    bool metricsEnabled() const
    {
        return opts_.metrics || opts_.sampleWindow > 0;
    }

  private:
    /** Per-completed-request fan-out (histograms + tracer). */
    void onRequest(const emmc::CompletedRequest &completed);

    sim::Simulator &sim_;
    emmc::EmmcDevice &device_;
    ObserverOptions opts_;

    Registry registry_;
    RequestTracer tracer_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<AttributionRecorder> recorder_;
    AttributionSummary attribution_;
    sim::Simulator::HookId simHook_ = 0;
    bool hooked_ = false;
    bool finished_ = false;

    /** Registry-owned response-time histogram (metrics mode). */
    sim::Histogram *responseMsHist_ = nullptr;
    /** Registry-owned service-time histogram (metrics mode). */
    sim::Histogram *serviceMsHist_ = nullptr;

    MetricsSnapshot snapshot_;
};

} // namespace emmcsim::obs

#endif // EMMCSIM_OBS_OBSERVER_HH
