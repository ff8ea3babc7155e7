#include "obs/observer.hh"

#include "emmc/device.hh"
#include "sim/logging.hh"

namespace emmcsim::obs {

namespace {

/** Millisecond latency buckets spanning flash-read to multi-second
 * GC-stall territory (roughly log-spaced, like the paper's CDFs). */
std::vector<double>
latencyBoundsMs()
{
    return {0.05, 0.1,  0.2,  0.5,   1.0,   2.0,    5.0,    10.0,
            20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0};
}

} // namespace

DeviceObserver::DeviceObserver(sim::Simulator &simulator,
                               emmc::EmmcDevice &device,
                               const ObserverOptions &opts)
    : sim_(simulator), device_(device), opts_(opts)
{
    if (metricsEnabled()) {
        registerDeviceMetrics(registry_, device_, opts_.prefix);
        if (opts_.replayStats != nullptr)
            registerReplayerMetrics(registry_, *opts_.replayStats,
                                    opts_.prefix);
        responseMsHist_ = &registry_.makeHistogram(
            opts_.prefix + "emmc.latency.response_ms", latencyBoundsMs());
        serviceMsHist_ = &registry_.makeHistogram(
            opts_.prefix + "emmc.latency.service_ms", latencyBoundsMs());
    }

    if (opts_.attribution)
        recorder_ = std::make_unique<AttributionRecorder>(opts_.slowestK);

    if (metricsEnabled() || opts_.trace || opts_.attribution) {
        device_.setTraceHook([this](const emmc::CompletedRequest &c) {
            onRequest(c);
        });
        hooked_ = true;
    }
    if (opts_.trace) {
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
    if (opts_.trace)
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
    if (opts_.trace)
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
