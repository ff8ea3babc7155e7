/**
 * @file
 * obs::RequestTracer: opt-in recorder of per-request and per-flash-op
 * spans, exportable as a Chrome trace_event JSON file loadable in
 * Perfetto / chrome://tracing. (BIOtracer's three timestamps per
 * request have one producer, the replayer: core::CaseResult::replayed,
 * which `emmcsim_cli --trace-csv` saves.)
 *
 * obs::DeviceObserver feeds the tracer from two existing observation
 * points — the device's per-request trace hook and the flash array's
 * per-operation hook — so tracing adds no branches beyond the two
 * null-checked std::function calls those hooks already cost, and a
 * run without tracing executes the exact pre-obs code path. This mirrors
 * the paper's BIOtracer, whose block-layer instrumentation perturbs
 * the traced workload by under ~2% (validated by
 * bench_biotracer_overhead).
 *
 * Span model:
 *  - request span: arrival (step 1) -> serviceStart (step 2) ->
 *    finish (step 3), with waited / packed / status annotations;
 *  - phase sub-spans: the request's attribution ledger
 *    (emmc/phases.hh) tiled under its span — queue-side phases
 *    (queue_wait / mount_stall / gc_wait) across [arrival,
 *    serviceStart] and the service chain across [serviceStart,
 *    finish], exact because the ledger conserves the response time;
 *  - flash-op span: start -> done for each read / program / erase /
 *    copyback, bucketed into per-die lanes, with fault status and
 *    read-retry counts.
 */

#ifndef EMMCSIM_OBS_TRACER_HH
#define EMMCSIM_OBS_TRACER_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "emmc/request.hh"
#include "flash/array.hh"

namespace emmcsim::obs {

/** Records request and flash-operation spans from one device. */
class RequestTracer
{
  public:
    /** @name Recording entry points (called from DeviceObserver's
     * hooks; tests call them to synthesize spans without a device).
     * @{ */
    void onRequest(const emmc::CompletedRequest &completed);
    void onFlashOp(flash::OpKind kind, const flash::PageAddr &addr,
                   const flash::OpResult &result,
                   std::uint32_t die_linear);
    /** @} */

    std::size_t requestCount() const { return requests_.size(); }
    std::size_t flashOpCount() const { return ops_.size(); }

    /**
     * Serialize every span as Chrome trace_event JSON: request service
     * intervals as complete ("X") events on one lane, queue waits as
     * async begin/end pairs, and flash operations as complete events
     * on one lane per die. Timestamps are microseconds (the format's
     * unit) with nanosecond precision kept in the fraction.
     */
    void exportChromeTrace(std::ostream &os) const;

  private:
    /** One completed request with BIOtracer's timestamps. */
    struct RequestSpan
    {
        std::uint64_t id = 0;
        sim::Time arrival = 0;
        sim::Time serviceStart = 0;
        sim::Time finish = 0;
        units::Lba lbaSector{0};
        units::Bytes sizeBytes{0};
        bool write = false;
        bool waited = false;
        bool packed = false;
        emmc::RequestStatus status = emmc::RequestStatus::Ok;
        /** Attribution ledger; tiles the span as phase sub-spans. */
        emmc::PhaseLedger phases;
    };

    /** One flash operation on its die lane. */
    struct FlashSpan
    {
        flash::OpKind kind = flash::OpKind::Read;
        std::uint32_t dieLinear = 0;
        flash::PageAddr addr;
        sim::Time start = 0;
        sim::Time done = 0;
        flash::OpStatus status = flash::OpStatus::Ok;
        std::uint32_t retries = 0;
    };

    std::vector<RequestSpan> requests_;
    std::vector<FlashSpan> ops_;
};

} // namespace emmcsim::obs

#endif // EMMCSIM_OBS_TRACER_HH
