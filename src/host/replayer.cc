#include "host/replayer.hh"

#include <algorithm>
#include <vector>

#include "core/binio.hh"
#include "sim/logging.hh"

namespace emmcsim::host {

namespace {

/** Snapshot-image identification (bumped on any layout change). */
const char kSnapshotMagic[] = "emmcsim-snap";
constexpr std::uint32_t kSnapshotVersion = 1;

/** First retry delay; doubles per attempt (exponential backoff). */
constexpr sim::Time kRetryBackoff = sim::milliseconds(1);

/**
 * Fold a request's address into the device's logical space (traces
 * can address a larger region than one device exports).
 */
void
foldAddress(emmc::IoRequest &req, std::uint64_t logical_units,
            std::uint64_t record_index)
{
    const std::uint64_t span = req.sizeUnits();
    if (span > logical_units) {
        // Wrapping cannot help: the request alone is larger than
        // the device. Without this check the fold below would
        // underflow its unsigned modulus.
        sim::fatal("trace record " + std::to_string(record_index) +
                   " spans " + std::to_string(span) +
                   " units but the device only exports " +
                   std::to_string(logical_units) +
                   "; use a larger device or a scaled-down trace");
    }
    const std::uint64_t unit = units::foldUnit(
        static_cast<std::uint64_t>(
            units::lbaToUnitFloor(req.lbaSector).value()),
        span, logical_units);
    req.lbaSector = units::unitToLba(
        units::UnitAddr{static_cast<std::int64_t>(unit)});
}

} // namespace

class Replayer::Sink
{
  public:
    /** @p c is the final completion of a request that arrived at
     *  @p arrival (its trace timestamp). */
    virtual void finish(sim::Time arrival,
                        const emmc::CompletedRequest &c) = 0;

  protected:
    ~Sink() = default;
};

class Replayer::StampSink final : public Replayer::Sink
{
  public:
    explicit StampSink(trace::Trace &out) : out_(out) {}

    void
    finish(sim::Time, const emmc::CompletedRequest &c) override
    {
        trace::TraceRecord &r = out_[c.request.id];
        r.serviceStart = c.serviceStart;
        r.finish = c.finish;
    }

  private:
    trace::Trace &out_;
};

class Replayer::FoldSink final : public Replayer::Sink
{
  public:
    explicit FoldSink(StreamReplayResult &res) : res_(res) {}

    void
    finish(sim::Time arrival, const emmc::CompletedRequest &c) override
    {
        ++res_.requests;
        res_.responseHistMs.add(sim::toMilliseconds(c.finish - arrival));
    }

  private:
    StreamReplayResult &res_;
};

Replayer::Replayer(sim::Simulator &simulator, emmc::EmmcDevice &device)
    : sim_(simulator), device_(device)
{
}

trace::Trace
Replayer::replay(const trace::Trace &input, const ReplayOptions &opts)
{
    return run(input, opts, std::nullopt);
}

trace::Trace
Replayer::resume(const trace::Trace &input, std::string_view image,
                 const ReplayOptions &opts)
{
    if (!opts.spo.ticks.empty() || opts.snapshotAt >= 0)
        sim::fatal("resume: SPO injection and re-snapshotting are not "
                   "supported on a resumed replay");
    return run(input, opts, image);
}

StreamReplayResult
Replayer::replayStream(trace::TraceSource &src, const ReplayOptions &opts)
{
    if (opts.snapshotAt >= 0)
        sim::fatal("stream replay: snapshotting needs the in-memory "
                   "path (the image stores per-record timestamps)");
    if (src.failed())
        sim::fatal("stream replay: source failed before the first "
                   "record: " + src.error().message());
    begin(opts);
    StreamReplayResult result;
    FoldSink sink(result);
    runLoop(src, sink, opts);
    EMMCSIM_ASSERT(result.requests == nextArrival_,
                   "stream replay lost completions");
    return result;
}

void
Replayer::begin(const ReplayOptions &opts)
{
    if (!opts.spo.ticks.empty() && opts.snapshotAt >= 0)
        sim::fatal("replay: SPO injection and snapshotting are "
                   "mutually exclusive in one replay");
    if (!std::is_sorted(opts.spo.ticks.begin(), opts.spo.ticks.end()))
        sim::fatal("replay: SPO ticks must be sorted ascending");
    stats_ = ReplayStats{};
    parked_.clear();
    pendingRetries_ = 0;
    nextArrival_ = 0;
    if (opts.snapshotAt >= 0 && opts.snapshotOut == nullptr)
        sim::fatal("replay: snapshotAt needs a snapshotOut writer");
    snapshotDone_ = false;
}

trace::Trace
Replayer::run(const trace::Trace &input, const ReplayOptions &opts,
              std::optional<std::string_view> image)
{
    // Validate before replaying anything: a malformed trace (arrivals
    // out of order, zero-sized or misaligned requests) would fail deep
    // inside the device with a far less actionable message.
    std::string problem = input.validate();
    if (!problem.empty())
        sim::fatal("replay: invalid input trace: " + problem);
    begin(opts);

    trace::Trace out = input;
    if (image)
        restore(*image, out);

    sim::Simulator::HookId hook = 0;
    if (opts.snapshotAt >= 0) {
        hook = sim_.addPostEventHook(
            [this, &out](const sim::Simulator &) { maybeCapture(out); });
    }
    trace::MemoryTraceSource src(input, nextArrival_);
    StampSink sink(out);
    runLoop(src, sink, opts);
    if (opts.snapshotAt >= 0) {
        sim_.removePostEventHook(hook);
        if (!snapshotDone_)
            sim::fatal("replay: no quiescent point reached at or after "
                       "the requested snapshot tick");
    }

    for (const auto &r : out.records()) {
        EMMCSIM_ASSERT(r.replayed(),
                       "replay finished with incomplete requests");
        EMMCSIM_DCHECK(r.arrival <= r.serviceStart &&
                           r.serviceStart <= r.finish,
                       "replayed record has inverted BIOtracer "
                       "timestamps");
    }
    return out;
}

void
Replayer::restore(std::string_view image, trace::Trace &out)
{
    if (sim_.pending() || sim_.now() != 0)
        sim::fatal("resume: needs a fresh simulator");
    core::BinReader reader(image);
    if (reader.str() != kSnapshotMagic ||
        reader.u32() != kSnapshotVersion)
        sim::fatal("resume: not a snapshot image (or wrong version)");
    const sim::Time capture_time = reader.i64();
    nextArrival_ = reader.u64();
    if (reader.u64() != out.size())
        sim::fatal("resume: snapshot was captured for a different "
                   "trace");
    for (trace::TraceRecord &r : out.records()) {
        r.serviceStart = reader.i64();
        r.finish = reader.i64();
    }
    reader.pod(stats_);
    if (!reader.ok() || nextArrival_ > out.size())
        sim::fatal("resume: truncated snapshot image");
    sim_.restoreClock(capture_time);

    // Re-feed the completions the capturing run already delivered
    // through the device trace hook, so observer-side accumulators
    // (the latency histograms) converge to the uninterrupted run's
    // values. The capture point is quiescent: every record before
    // nextArrival_ has final timestamps.
    if (device_.traceHook()) {
        for (std::uint64_t i = 0; i < nextArrival_; ++i) {
            const trace::TraceRecord &r = out[i];
            emmc::CompletedRequest c;
            c.request.id = i;
            c.request.arrival = r.arrival;
            c.request.lbaSector = r.lbaSector;
            c.request.sizeBytes = r.sizeBytes;
            c.request.write = r.isWrite();
            c.serviceStart = r.serviceStart;
            c.finish = r.finish;
            c.waited = r.serviceStart > r.arrival;
            device_.traceHook()(c);
        }
    }

    // The capture point had no retry in flight, so the loop's retry
    // ring starts empty; the device re-arms its idle-GC ticks.
    device_.load(reader);
    if (!reader.ok() || reader.remaining() != 0)
        sim::fatal("resume: corrupt snapshot image");
}

void
Replayer::runLoop(trace::TraceSource &src, Sink &sink,
                  const ReplayOptions &opts)
{
    src_ = &src;
    sink_ = &sink;
    opts_ = &opts;
    logicalUnits_ = device_.ftl().logicalUnits();
    chunk_.resize(kChunk);
    refill();
    // Sized for a deep in-flight window up front; growRing() handles
    // deeper ones, so this is a latency hint, not a limit.
    ring_.assign(kChunk, RetryEntry{});

    device_.setCompletionCallback(
        [this](const emmc::CompletedRequest &c) { onCompletion(c); });
    for (sim::Time tick : opts.spo.ticks) {
        EMMCSIM_ASSERT(tick > 0, "SPO tick must be positive");
        sim_.schedule(tick, [this] { spoCut(); });
    }

    sim_.setArrivals(this);
    sim_.run();
    sim_.setArrivals(nullptr);
    device_.setCompletionCallback(nullptr);

    for (const RetryEntry &e : ring_)
        EMMCSIM_ASSERT(!e.active,
                       "replay finished with incomplete requests");
    src_ = nullptr;
    sink_ = nullptr;
    opts_ = nullptr;
}

sim::Time
Replayer::nextArrival() const
{
    return chunkPos_ < chunkLen_ ? chunk_[chunkPos_].arrival
                                 : sim::kTimeNever;
}

void
Replayer::fireNext()
{
    const trace::TraceRecord &r = chunk_[chunkPos_];
    emmc::IoRequest req;
    req.id = nextArrival_++;
    req.arrival = r.arrival;
    req.sizeBytes = r.sizeBytes;
    req.write = r.isWrite();
    req.lbaSector = r.lbaSector;
    foldAddress(req, logicalUnits_, req.id);
    track(req.id, req.arrival);
    submitNow(req);
    if (++chunkPos_ == chunkLen_)
        refill();
}

void
Replayer::refill()
{
    chunkPos_ = 0;
    chunkLen_ = src_->next(chunk_.data(), chunk_.size());
    if (chunkLen_ == 0 && src_->failed())
        sim::fatal("replay: trace source failed mid-stream: " +
                   src_->error().message());
}

void
Replayer::onCompletion(const emmc::CompletedRequest &c)
{
    const std::uint64_t id = c.request.id;
    RetryEntry &rs = entryFor(id);
    if (rs.firstFinish < 0)
        rs.firstFinish = c.finish;

    if (!c.ok()) {
        ++stats_.errorCompletions;
        if (rs.attempts < opts_->maxRetries) {
            // Resubmit with exponential backoff, like the block
            // layer requeueing a failed bio.
            const std::uint32_t shift = std::min(rs.attempts, 20u);
            const sim::Time delay = kRetryBackoff << shift;
            ++rs.attempts;
            ++stats_.retriesScheduled;
            ++pendingRetries_;
            emmc::IoRequest retry = c.request;
            retry.arrival = c.finish + delay;
            EMMCSIM_LOG_DEBUG(
                "replay", "request " + std::to_string(id) +
                              " errored; retry " +
                              std::to_string(rs.attempts) + "/" +
                              std::to_string(opts_->maxRetries) +
                              " at " + std::to_string(retry.arrival) +
                              " ns");
            // Retry closure: {this, IoRequest} = 48 bytes — exactly
            // InlineAction's inline budget. If IoRequest grows,
            // this assert fires before the hot path regresses to
            // heap-allocating events.
            auto resubmit = [this, retry] {
                --pendingRetries_;
                submitNow(retry);
            };
            static_assert(sim::InlineAction::fits<decltype(resubmit)>(),
                          "retry capture must stay inline");
            sim_.schedule(retry.arrival, std::move(resubmit));
            return;
        }
        ++stats_.failedRequests;
        stats_.retryPenalty += c.finish - rs.firstFinish;
        EMMCSIM_LOG_DEBUG("replay",
                          "request " + std::to_string(id) +
                              " failed permanently after " +
                              std::to_string(rs.attempts) +
                              " retry attempt(s)");
    } else if (rs.attempts > 0) {
        ++stats_.recoveredRequests;
        stats_.retryPenalty += c.finish - rs.firstFinish;
    }
    sink_->finish(rs.arrival, c);
    rs.active = false;
}

Replayer::RetryEntry &
Replayer::entryFor(std::uint64_t id)
{
    RetryEntry &e = ring_[id & (ring_.size() - 1)];
    EMMCSIM_ASSERT(e.active && e.id == id, "retry ring lost a request");
    return e;
}

void
Replayer::track(std::uint64_t id, sim::Time arrival)
{
    if (ring_[id & (ring_.size() - 1)].active)
        growRing(id);
    RetryEntry &e = ring_[id & (ring_.size() - 1)];
    e.id = id;
    e.arrival = arrival;
    e.firstFinish = -1;
    e.attempts = 0;
    e.active = true;
}

void
Replayer::growRing(std::uint64_t id)
{
    // Ids are assigned consecutively, so the live set fits in
    // [lo, id]. Any power-of-two size covering that span gives every
    // live id a distinct residue — the rehash below cannot collide.
    std::uint64_t lo = id;
    for (const RetryEntry &e : ring_)
        if (e.active)
            lo = std::min(lo, e.id);
    std::size_t need = ring_.size();
    while (need < id - lo + 2 || need < 2 * ring_.size())
        need *= 2;
    std::vector<RetryEntry> bigger(need);
    for (const RetryEntry &e : ring_) {
        if (!e.active)
            continue;
        RetryEntry &slot = bigger[e.id & (need - 1)];
        EMMCSIM_ASSERT(!slot.active, "retry ring rehash collision");
        slot = e;
    }
    ring_.swap(bigger);
}

void
Replayer::submitNow(const emmc::IoRequest &req)
{
    if (device_.poweredOff()) {
        // The host sees a dead device: hold the request and re-issue
        // it when power returns.
        ++stats_.deferredSubmissions;
        parked_.push_back(req);
        return;
    }
    emmc::IoRequest r = req;
    r.arrival = sim_.now(); // re-issues arrive when submitted
    device_.submit(r);
}

void
Replayer::spoCut()
{
    if (device_.poweredOff()) {
        ++stats_.spoSkipped; // cut landed inside an ongoing outage
        return;
    }
    const sim::Time now = sim_.now();
    if (opts_->spo.notify)
        device_.powerOffNotify(now);
    device_.powerFail(now, parked_);
    ++stats_.spoEvents;
    sim_.schedule(now + opts_->spo.powerOnDelay, [this] { spoPowerUp(); });
}

void
Replayer::spoPowerUp()
{
    const ftl::RecoveryReport rep = device_.powerOn(sim_.now());
    stats_.recoveryTime += rep.totalTime;
    // Re-issue everything the outage swallowed — dropped in-flight and
    // queued requests plus arrivals parked mid-outage — in submission
    // order, like the block layer requeueing its outstanding bios.
    std::vector<emmc::IoRequest> again;
    again.swap(parked_);
    std::sort(again.begin(), again.end(),
              [](const emmc::IoRequest &a, const emmc::IoRequest &b) {
                  return a.id < b.id;
              });
    for (const emmc::IoRequest &r : again) {
        ++stats_.reissuedRequests;
        submitNow(r);
    }
}

void
Replayer::maybeCapture(const trace::Trace &out)
{
    if (snapshotDone_ || sim_.now() < opts_->snapshotAt)
        return;
    // Quiescent point: nothing in flight anywhere — device idle with
    // an empty queue, no retry resubmission scheduled, nothing parked.
    // Pending arrivals and idle-GC ticks are fine; both are re-armed
    // from the image on resume.
    if (device_.busy() || device_.queueDepth() > 0 ||
        device_.poweredOff() || pendingRetries_ > 0 || !parked_.empty())
        return;

    core::BinWriter &w = *opts_->snapshotOut;
    const std::size_t start = w.data().size();
    w.str(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.i64(sim_.now());
    w.u64(nextArrival_);
    w.u64(out.size());
    for (const trace::TraceRecord &r : out.records()) {
        w.i64(r.serviceStart);
        w.i64(r.finish);
    }
    w.pod(stats_);
    device_.save(w);
    snapshotDone_ = true;
    EMMCSIM_LOG_DEBUG(
        "replay", "snapshot captured at " + std::to_string(sim_.now()) +
                      " ns (" + std::to_string(w.data().size() - start) +
                      " bytes, " + std::to_string(nextArrival_) +
                      " arrivals in)");
}

} // namespace emmcsim::host
