#include "emmc/device.hh"

#include <algorithm>
#include <span>

#include "sim/logging.hh"

namespace emmcsim::emmc {

EmmcDevice::EmmcDevice(sim::Simulator &simulator, const EmmcConfig &cfg)
    : sim_(simulator),
      cfg_(cfg),
      injector_(cfg_.fault),
      array_(cfg_.geometry, cfg_.timing, cfg_.multiplane),
      ftl_(array_, cfg_.ftl),
      packer_(cfg_.packing),
      power_(cfg_.power),
      buffer_(cfg_.buffer)
{
    // Only an enabled injector is attached, so a default-configured
    // device runs the exact pre-fault code path (dormant neutrality).
    if (injector_.enabled())
        array_.attachFaultInjector(&injector_);
}

void
EmmcDevice::submit(const IoRequest &request)
{
    EMMCSIM_ASSERT(request.sizeBytes.value() > 0 &&
                       units::isUnitAligned(request.sizeBytes),
                   "request size must be a positive 4KB multiple");
    EMMCSIM_ASSERT(units::isUnitAligned(request.lbaSector),
                   "request LBA must be 4KB-aligned");
    EMMCSIM_ASSERT(request.arrival == sim_.now(),
                   "submit must run at the request's arrival time");
    EMMCSIM_ASSERT(!poweredOff_,
                   "submit to a powered-off device (the host must "
                   "defer arrivals until powerOn)");

    ++stats_.requests;
    if (request.write) {
        ++stats_.writeRequests;
        stats_.bytesWritten += request.sizeBytes.value();
    } else {
        ++stats_.readRequests;
        stats_.bytesRead += request.sizeBytes.value();
    }

    const bool waited = busy();
    if (!waited)
        ++stats_.noWaitRequests;
    stats_.queueDepthAtArrival.add(
        static_cast<double>(queueDepth() + (waited ? 1 : 0)));

    CompletedRequest &c = queue_.emplace_back();
    c.request = request;
    c.waited = waited;
    if (!waited)
        startNext();
}

void
EmmcDevice::startNext()
{
    EMMCSIM_ASSERT(!busy() && head_ < queue_.size(),
                   "startNext needs an idle device and a waiting request");
    const sim::Time now = sim_.now();

    // Decide how many waiting requests ride this command (packed
    // writes); they become the in-flight span [head_, head_ + count).
    const std::span<CompletedRequest> waiting(queue_.data() + head_,
                                              queue_.size() - head_);
    inflight_ = packer_.packCount(waiting, &CompletedRequest::request);
    const std::span<CompletedRequest> cmd = waiting.first(inflight_);

    // Wake from low power if the idle gap crossed the threshold. The
    // warm-up is part of *service* time (BIOtracer's step 2 fires when
    // the command is issued, before the device is warm), which is why
    // the paper's low-rate apps show long mean service times.
    const sim::Time busy_until = std::max(gcBusyUntil_, mountBusyUntil_);
    const sim::Time service_start = std::max(now, busy_until);
    sim::Time penalty = 0;
    if (idle_) {
        penalty = power_.wakePenalty(service_start);
        idle_ = false;
    }
    const sim::Time begin =
        service_start + penalty + cfg_.commandOverhead;

    // Attribution (DESIGN.md §14): split the pre-dispatch interval.
    // Recovery occupancy is charged before idle-GC occupancy when both
    // hold the flash (mount_part covers [now, mountBusyUntil_], GC the
    // remainder); the queue share is the wait behind earlier commands.
    const sim::Time stall = service_start - now;
    const sim::Time mount_part = std::min(
        stall, std::max<sim::Time>(0, mountBusyUntil_ - now));

    sim::Time done = begin;
    for (CompletedRequest &c : cmd) {
        c.packed = cmd.size() > 1;
        c.serviceStart = service_start;
        c.phases.add(Phase::QueueWait, now - c.request.arrival);
        c.phases.add(Phase::MountStall, mount_part);
        c.phases.add(Phase::GcWait, stall - mount_part);
        c.phases.add(Phase::Wakeup, penalty);
        c.phases.add(Phase::CmdOverhead, cfg_.commandOverhead);
        sim::Time t =
            c.request.write
                ? serveWrite(c.request, begin, c.status, c.phases)
                : serveRead(c.request, begin, c.status, c.phases);
        // Park the request's own flash-done time in `finish` so the
        // alignment pass below can charge the packed-batch slack.
        c.finish = t;
        done = std::max(done, t);
    }
    for (CompletedRequest &c : cmd) {
        c.phases.add(Phase::PackAlign, done - c.finish);
        c.finish = done;
    }

    ++stats_.commands;
    stats_.busyTime += done - service_start;

    // The handle lets powerFail() cancel the acknowledgment: a cut
    // before `done` means these requests were never completed.
    pendingCompletion_ = sim_.schedule(done, [this] { finishCommand(); });
}

namespace {

/**
 * Charge an FTL critical-chain breakdown (covering done − begin of
 * the call it came from) to a request's phase ledger. @p cell_phase
 * names the cell time: NandRead for read chains, NandProgram for
 * write chains.
 */
void
chargeChain(PhaseLedger &phases, const ftl::FlashBreakdown &chain,
            Phase cell_phase)
{
    phases.add(Phase::GcStall, chain.gcStall);
    phases.add(Phase::BusWait, chain.busWait);
    phases.add(Phase::BusXfer, chain.busXfer);
    phases.add(Phase::NandWait, chain.nandWait);
    phases.add(cell_phase, chain.nandCell);
    phases.add(Phase::Retry, chain.retry);
    phases.add(Phase::Reloc, chain.reloc);
}

} // namespace

sim::Time
EmmcDevice::serveRead(const IoRequest &r, sim::Time begin,
                      RequestStatus &status, PhaseLedger &phases)
{
    const flash::Lpn first = r.firstUnit();
    const std::uint32_t n = r.sizeUnits();
    std::uint32_t lost = 0;
    sim::Time done = begin;
    if (!buffer_.enabled()) {
        ftl::ReadResult res = ftl_.readUnits(first, n, begin);
        lost = res.uncorrectablePages;
        done = res.done;
        chargeChain(phases, res.chain, Phase::NandRead);
    } else {
        std::vector<UnitRun> misses;
        std::vector<UnitRun> evicted;
        buffer_.read(first, n, misses, evicted);
        // Attribution: the miss run finishing last carries the chain;
        // if the eviction write-back outlasts every miss, the whole
        // flash interval is buffer-flush time instead.
        ftl::FlashBreakdown chain;
        sim::Time read_done = begin;
        for (const UnitRun &m : misses) {
            ftl::ReadResult res = ftl_.readUnits(m.first, m.count, begin);
            lost += res.uncorrectablePages;
            if (res.done > read_done) {
                read_done = res.done;
                chain = res.chain;
            }
        }
        // Eviction write-backs piggyback on the read; their rejection
        // (read-only device) is reported on the evicted writes' own
        // requests, not on this read.
        bool accepted = true;
        sim::Time flush_done = flushRuns(evicted, begin, accepted);
        done = std::max(read_done, flush_done);
        if (flush_done > read_done)
            phases.add(Phase::BufferFlush, flush_done - begin);
        else
            chargeChain(phases, chain, Phase::NandRead);
    }
    if (lost > 0) {
        status = RequestStatus::ReadError;
        ++stats_.readErrorRequests;
    }
    return done;
}

sim::Time
EmmcDevice::serveWrite(const IoRequest &r, sim::Time begin,
                       RequestStatus &status, PhaseLedger &phases)
{
    const flash::Lpn first = r.firstUnit();
    const std::uint32_t n = r.sizeUnits();
    bool accepted = true;
    sim::Time done = begin;
    if (!buffer_.enabled()) {
        ftl::FlashBreakdown chain;
        done = writeRun(first, n, begin, accepted, chain);
        chargeChain(phases, chain, Phase::NandProgram);
    } else if (ftl_.readOnly()) {
        // Refuse to buffer data that can never reach flash.
        accepted = false;
    } else {
        // Buffered writes land in RAM instantly; any flash time is
        // eviction write-back, charged wholesale as buffer flush.
        std::vector<UnitRun> evicted;
        buffer_.write(first, n, evicted);
        done = flushRuns(evicted, begin, accepted);
        phases.add(Phase::BufferFlush, done - begin);
    }
    if (!accepted) {
        status = RequestStatus::WriteRejected;
        ++stats_.writeRejectedRequests;
    }
    return done;
}

sim::Time
EmmcDevice::writeRun(flash::Lpn first, std::uint32_t n, sim::Time begin,
                     bool &accepted, ftl::FlashBreakdown &chain)
{
    // Attribution: the page group finishing last is the critical
    // chain; the others overlapped it on other planes/channels.
    sim::Time done = begin;
    ftl_.writeSplit().split(first, n, [&](const ftl::PageGroup &g) {
        ftl::WriteResult w = ftl_.writeGroup(g.pool, g.first, g.count,
                                             begin);
        accepted = accepted && w.accepted;
        if (w.done > done) {
            done = w.done;
            chain = w.chain;
        }
    });
    return done;
}

sim::Time
EmmcDevice::flushRuns(const std::vector<UnitRun> &runs, sim::Time begin,
                      bool &accepted)
{
    // Buffer write-back is charged wholesale; no chain is kept.
    sim::Time done = begin;
    ftl::FlashBreakdown chain;
    for (const UnitRun &run : runs)
        done = std::max(done,
                        writeRun(run.first, run.count, begin, accepted,
                                 chain));
    return done;
}

void
EmmcDevice::finishCommand()
{
    // By index and by copy: a completion callback may submit(), which
    // can grow queue_ and move its entries.
    for (std::size_t i = 0; i < inflight_; ++i) {
        const CompletedRequest c = queue_[head_ + i];
        // BIOtracer step ordering: arrival (1) <= service start (2)
        // <= finish (3). A violation means the dispatch path mis-
        // computed a timestamp and every latency statistic is suspect.
        EMMCSIM_DCHECK(c.request.arrival <= c.serviceStart,
                       "request served before it arrived");
        EMMCSIM_DCHECK(c.serviceStart <= c.finish,
                       "request finished before service started");
        double resp = sim::toMilliseconds(c.finish - c.request.arrival);
        double serv = sim::toMilliseconds(c.finish - c.serviceStart);
        double wait =
            sim::toMilliseconds(c.serviceStart - c.request.arrival);
        stats_.responseMs.add(resp);
        stats_.serviceMs.add(serv);
        stats_.waitMs.add(wait);
        // Attribution conservation (DESIGN.md §14): the phase ledger
        // must decompose the response time exactly. Counted (not just
        // asserted) so the release-build audit checker sees breakage.
        if (c.phases.total() != c.finish - c.request.arrival)
            ++stats_.ledgerViolations;
        EMMCSIM_DCHECK(c.phases.total() == c.finish - c.request.arrival,
                       "phase ledger does not conserve response time");
        if (traceHook_)
            traceHook_(c);
        if (onComplete_)
            onComplete_(c);
    }

    // Drop the served entries: all of them once the queue drains,
    // else in one compaction when they pass half the storage.
    head_ += inflight_;
    inflight_ = 0;
    if (head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
    } else if (2 * head_ > queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    if (!queue_.empty()) {
        startNext();
    } else {
        idle_ = true;
        power_.onIdle(sim_.now());
        if (cfg_.idleGcEnabled) {
            pendingIdleTicks_.push_back(sim_.now() + cfg_.idleGcDelay);
            sim_.scheduleAfter(cfg_.idleGcDelay,
                               [this] { idleGcTick(); });
        }
    }
}

void
EmmcDevice::idleGcTick()
{
    // Each tick event carries one mirror entry; consume it whether or
    // not the tick does work, keeping the mirror equal to the set of
    // still-scheduled tick events (the snapshot re-arm list).
    auto it = std::find(pendingIdleTicks_.begin(),
                        pendingIdleTicks_.end(), sim_.now());
    if (it != pendingIdleTicks_.end())
        pendingIdleTicks_.erase(it);
    if (poweredOff_ || busy() || !idle_)
        return; // power cut, or a request arrived before the window
    const sim::Time now = sim_.now();
    bool did_work = false;
    sim::Time done = ftl_.idleGcStep(now, did_work);
    if (did_work) {
        gcBusyUntil_ = std::max(gcBusyUntil_, done);
        // More reclamation may remain; step again after a short gap
        // so arriving requests interleave freely.
        pendingIdleTicks_.push_back(done + cfg_.idleGcStepGap);
        sim_.schedule(done + cfg_.idleGcStepGap,
                      [this] { idleGcTick(); });
    }
}

void
EmmcDevice::powerFail(sim::Time now, std::vector<IoRequest> &dropped)
{
    EMMCSIM_ASSERT(!poweredOff_, "powerFail on an already-dead device");
    ++spoStats_.powerCuts;
    poweredOff_ = true;
    crashTime_ = now;

    // The in-flight command never completes: cancel its completion
    // event (the acknowledgment) and hand its requests — then the
    // waiting ones — back for host-side re-issue after power-up.
    if (busy())
        sim_.cancel(pendingCompletion_);
    spoStats_.droppedInFlight += inflight_;
    spoStats_.droppedQueued += queueDepth();
    for (std::size_t i = head_; i < queue_.size(); ++i)
        dropped.push_back(queue_[i].request);
    queue_.clear();
    head_ = 0;
    inflight_ = 0;

    // Volatile RAM vanishes with the rail; dirty units in it were
    // acknowledged data the host will not re-send (the durability gap
    // the paper's flush barriers exist to close).
    spoStats_.lostDirtyUnits += buffer_.discardAll();

    idle_ = true;
}

void
EmmcDevice::powerOffNotify(sim::Time now)
{
    EMMCSIM_ASSERT(!poweredOff_, "notify after the power cut");
    ++spoStats_.notifiedCuts;
    flushCache(now);
    ftl_.journal().checkpoint();
    ftl_.markProgramsSettled();
}

ftl::RecoveryReport
EmmcDevice::powerOn(sim::Time now)
{
    EMMCSIM_ASSERT(poweredOff_, "powerOn without a preceding powerFail");
    ftl::RecoveryReport rep = ftl_.powerFailAndRecover(crashTime_);
    spoStats_.tornPages += rep.tornPages;
    spoStats_.recoveryTime += rep.totalTime;
    spoStats_.recoveryCheckpointLoad += rep.checkpointReadTime;
    spoStats_.recoveryJournalReplay += rep.journalReplayTime;
    spoStats_.recoveryScan += rep.scanTime;
    spoStats_.recoveryReErase += rep.reEraseTime;
    spoStats_.recoveryCheckpointWrite += rep.checkpointWriteTime;
    // Recovery occupies the flash backend exactly like blocking GC:
    // the first post-power-up command waits out the checkpoint load,
    // journal replay and open-block scan. Tracked apart from
    // gcBusyUntil_ so the stall attributes to MountStall, not GcWait.
    mountBusyUntil_ = std::max(mountBusyUntil_, now + rep.totalTime);
    poweredOff_ = false;
    idle_ = true;
    power_.onIdle(now);
    return rep;
}

sim::Time
EmmcDevice::flushCache(sim::Time now)
{
    sim::Time done = now;
    if (buffer_.enabled()) {
        std::vector<UnitRun> evicted;
        buffer_.flushAll(evicted);
        // Rejection only happens on a read-only device, which has no
        // dirty data to lose; the barrier still completes.
        bool accepted = true;
        done = std::max(done, flushRuns(evicted, now, accepted));
    }
    ftl_.flushBarrier();
    return done;
}

template <typename Self, typename IO>
void
EmmcDevice::fields(Self &self, IO &io)
{
    io.nested(self.injector_);
    io.nested(self.array_);
    io.nested(self.ftl_);
    io.nested(self.packer_);
    io.nested(self.power_);
    io.nested(self.buffer_);
    io.pod(self.idle_);
    io.pod(self.gcBusyUntil_);
    io.pod(self.mountBusyUntil_);
    io.pod(self.stats_);
    io.pod(self.spoStats_);
    io.podVec(self.pendingIdleTicks_);
}

void
EmmcDevice::save(core::BinWriter &w) const
{
    EMMCSIM_ASSERT(queue_.empty() && !poweredOff_,
                   "snapshots are quiescent-point only");
    fields(*this, w);
}

void
EmmcDevice::load(core::BinReader &r)
{
    fields(*this, r);
    poweredOff_ = false;
    queue_.clear();
    head_ = 0;
    inflight_ = 0;
    if (!r.ok())
        return;
    // Re-arm the idle-GC ticks that were pending at capture time; the
    // caller restored the clock before loading, so the mirror entries
    // are all in the future.
    for (sim::Time t : pendingIdleTicks_) {
        EMMCSIM_ASSERT(t >= sim_.now(), "stale idle tick in snapshot");
        sim_.schedule(t, [this] { idleGcTick(); });
    }
}

double
EmmcDevice::utilization(sim::Time now) const
{
    if (now <= 0)
        return 0.0;
    return static_cast<double>(stats_.busyTime) /
           static_cast<double>(now);
}

double
EmmcDevice::spaceUtilization() const
{
    const ftl::FtlStats &fs = ftl_.stats();
    if (fs.hostBytesConsumed == 0)
        return 1.0;
    return static_cast<double>(fs.hostUnitsWritten * sim::kUnitBytes) /
           static_cast<double>(fs.hostBytesConsumed);
}

} // namespace emmcsim::emmc
