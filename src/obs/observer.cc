#include "obs/observer.hh"

#include "emmc/device.hh"
#include "sim/logging.hh"

namespace emmcsim::obs {

namespace {

/** Slowest requests kept by the attribution summary. */
constexpr std::size_t kSlowestRequests = 10;

} // namespace

DeviceObserver::DeviceObserver(sim::Simulator &simulator,
                               emmc::EmmcDevice &device,
                               const ObserverOptions &opts,
                               const host::ReplayStats *replayStats)
    : sim_(simulator), device_(device), opts_(opts)
{
    if (metricsEnabled()) {
        registerDeviceMetrics(registry_, device_);
        if (replayStats != nullptr)
            registerReplayerMetrics(registry_, *replayStats);
        responseMsHist_ = &registry_.makeHistogram(
            "emmc.latency.response_ms", sim::latencyBoundsMs());
        serviceMsHist_ = &registry_.makeHistogram(
            "emmc.latency.service_ms", sim::latencyBoundsMs());
    }

    if (opts_.attribution)
        recorder_ = std::make_unique<AttributionRecorder>(kSlowestRequests);

    if (metricsEnabled() || opts_.traceSpans || opts_.attribution) {
        device_.setTraceHook([this](const emmc::CompletedRequest &c) {
            onRequest(c);
        });
        hooked_ = true;
    }
    if (opts_.traceSpans) {
        flash::FlashArray &array = device_.array();
        const flash::Geometry &geom = array.geometry();
        array.setOpHook([this, &geom](flash::OpKind kind,
                                      const flash::PageAddr &addr,
                                      const flash::OpResult &res) {
            tracer_.onFlashOp(kind, addr, res,
                              flash::dieLinear(geom, addr));
        });
    }

    if (opts_.sampleWindow > 0) {
        // Registration is complete; the sampler can freeze the
        // sampled-metric set and watch the clock after every event.
        sampler_ = std::make_unique<Sampler>(registry_, opts_.sampleWindow);
        simHook_ = sim_.addPostEventHook(
            [this](const sim::Simulator &s) { sampler_->observe(s.now()); });
    }
}

DeviceObserver::~DeviceObserver()
{
    finish();
}

void
DeviceObserver::onRequest(const emmc::CompletedRequest &completed)
{
    if (responseMsHist_ != nullptr) {
        responseMsHist_->add(sim::toMilliseconds(completed.finish -
                                                 completed.request.arrival));
        serviceMsHist_->add(
            sim::toMilliseconds(completed.finish - completed.serviceStart));
    }
    if (opts_.traceSpans)
        tracer_.onRequest(completed);
    if (recorder_)
        recorder_->onRequest(completed);
}

void
DeviceObserver::finish()
{
    if (finished_)
        return;
    finished_ = true;

    if (simHook_ != 0) {
        sim_.removePostEventHook(simHook_);
        simHook_ = 0;
    }
    if (sampler_)
        sampler_->finish(sim_.now());
    if (hooked_) {
        device_.setTraceHook(nullptr);
        hooked_ = false;
    }
    if (opts_.traceSpans)
        device_.array().setOpHook(nullptr);

    if (metricsEnabled())
        snapshot_ = registry_.snapshot();

    if (recorder_) {
        recorder_->noteDevice(device_.stats(), device_.spoStats());
        attribution_ = recorder_->summarize();
    }
}

SeriesSet
DeviceObserver::series() const
{
    return sampler_ ? sampler_->series() : SeriesSet{};
}

} // namespace emmcsim::obs
