#include "obs/device_metrics.hh"

#include "emmc/device.hh"
#include "ftl/wear.hh"
#include "host/replayer.hh"
#include "sim/simulator.hh"

namespace emmcsim::obs {

namespace {

/** Register a counter over a uint64 stats field. */
void
bindCounter(Registry &reg, std::string name, const std::uint64_t &field)
{
    reg.counter(std::move(name), [&field] { return field; });
}

/** Register a counter over a sim::Time stats field (suffix _ns). */
void
bindTimeCounter(Registry &reg, std::string name, const sim::Time &field)
{
    reg.counter(std::move(name),
                [&field] { return static_cast<std::uint64_t>(field); });
}

} // namespace

void
registerDeviceMetrics(Registry &registry, const emmc::EmmcDevice &device)
{
    const emmc::DeviceStats &d = device.stats();
    bindCounter(registry, "emmc.requests", d.requests);
    bindCounter(registry, "emmc.read_requests", d.readRequests);
    bindCounter(registry, "emmc.write_requests", d.writeRequests);
    bindCounter(registry, "emmc.bytes_read", d.bytesRead);
    bindCounter(registry, "emmc.bytes_written", d.bytesWritten);
    bindCounter(registry, "emmc.no_wait_requests", d.noWaitRequests);
    bindCounter(registry, "emmc.read_error_requests", d.readErrorRequests);
    bindCounter(registry, "emmc.write_rejected_requests",
                d.writeRejectedRequests);
    bindCounter(registry, "emmc.commands", d.commands);
    bindTimeCounter(registry, "emmc.busy_time_ns", d.busyTime);
    registry.gauge("emmc.queue_depth", [&device] {
        return static_cast<double>(device.queueDepth());
    });
    registry.gauge("emmc.space_utilization",
                   [&device] { return device.spaceUtilization(); });
    registry.summary("emmc.response_ms", &d.responseMs);
    registry.summary("emmc.service_ms", &d.serviceMs);
    registry.summary("emmc.wait_ms", &d.waitMs);
    registry.summary("emmc.queue_depth_at_arrival", &d.queueDepthAtArrival);

    const emmc::PackingStats &pk = device.packingStats();
    bindCounter(registry, "emmc.packing.packed_commands", pk.packedCommands);
    bindCounter(registry, "emmc.packing.packed_requests", pk.packedRequests);

    const emmc::PowerStats &pw = device.powerStats();
    bindCounter(registry, "emmc.power.wakeups", pw.wakeups);
    bindTimeCounter(registry, "emmc.power.low_power_time_ns",
                    pw.lowPowerTime);
    bindTimeCounter(registry, "emmc.power.active_time_ns", pw.activeTime);
    registry.gauge("emmc.power.energy_mj",
                   [&device] { return device.power().energyMj(); });

    const emmc::BufferStats &bf = device.bufferStats();
    bindCounter(registry, "emmc.buffer.read_lookups", bf.readLookups);
    bindCounter(registry, "emmc.buffer.read_hits", bf.readHits);
    bindCounter(registry, "emmc.buffer.write_lookups", bf.writeLookups);
    bindCounter(registry, "emmc.buffer.write_hits", bf.writeHits);
    bindCounter(registry, "emmc.buffer.evicted_dirty", bf.evictedDirty);

    const ftl::FtlStats &f = device.ftl().stats();
    bindCounter(registry, "ftl.host_units_written", f.hostUnitsWritten);
    bindCounter(registry, "ftl.host_bytes_consumed", f.hostBytesConsumed);
    bindCounter(registry, "ftl.host_units_read", f.hostUnitsRead);
    bindCounter(registry, "ftl.host_read_ops", f.hostReadOps);
    bindCounter(registry, "ftl.host_program_ops", f.hostProgramOps);
    bindCounter(registry, "ftl.overflow_redirects", f.overflowRedirects);
    bindCounter(registry, "ftl.relocated_programs", f.relocatedPrograms);
    bindCounter(registry, "ftl.uncorrectable_reads", f.uncorrectableReads);
    bindCounter(registry, "ftl.rejected_writes", f.rejectedWrites);

    const emmc::SpoStats &sp = device.spoStats();
    bindCounter(registry, "emmc.spo.power_cuts", sp.powerCuts);
    bindCounter(registry, "emmc.spo.notified_cuts", sp.notifiedCuts);
    bindCounter(registry, "emmc.spo.dropped_in_flight", sp.droppedInFlight);
    bindCounter(registry, "emmc.spo.dropped_queued", sp.droppedQueued);
    bindCounter(registry, "emmc.spo.lost_dirty_units", sp.lostDirtyUnits);
    bindCounter(registry, "emmc.spo.torn_pages", sp.tornPages);
    bindTimeCounter(registry, "emmc.spo.recovery_time_ns", sp.recoveryTime);

    const ftl::JournalStats &jn = device.ftl().journal().stats();
    bindCounter(registry, "ftl.journal.write_records", jn.writeRecords);
    bindCounter(registry, "ftl.journal.reloc_records", jn.relocRecords);
    bindCounter(registry, "ftl.journal.pages_flushed", jn.pagesFlushed);
    bindCounter(registry, "ftl.journal.barrier_flushes", jn.barrierFlushes);
    bindCounter(registry, "ftl.journal.checkpoints", jn.checkpoints);
    registry.counter("ftl.journal.seq", [&device] {
        return device.ftl().journal().seq();
    });
    registry.counter("ftl.journal.durable_seq", [&device] {
        return device.ftl().journal().durableSeq();
    });

    const ftl::GcStats &gc = device.ftl().gcStats();
    bindCounter(registry, "ftl.gc.blocking_rounds", gc.blockingRounds);
    bindCounter(registry, "ftl.gc.idle_rounds", gc.idleRounds);
    bindCounter(registry, "ftl.gc.idle_steps", gc.idleSteps);
    bindCounter(registry, "ftl.gc.relocated_units", gc.relocatedUnits);
    bindCounter(registry, "ftl.gc.erased_blocks", gc.erasedBlocks);
    bindCounter(registry, "ftl.gc.retired_blocks", gc.retiredBlocks);
    bindCounter(registry, "ftl.gc.scrub_steps", gc.scrubSteps);
    bindTimeCounter(registry, "ftl.gc.blocking_time_ns", gc.blockingTime);
    bindTimeCounter(registry, "ftl.gc.idle_time_ns", gc.idleTime);

    const ftl::BbmStats &bb = device.ftl().badBlocks().stats();
    bindCounter(registry, "ftl.bbm.program_failures", bb.programFailures);
    bindCounter(registry, "ftl.bbm.erase_failures", bb.eraseFailures);
    bindCounter(registry, "ftl.bbm.relocated_programs", bb.relocatedPrograms);
    bindCounter(registry, "ftl.bbm.retired_program", bb.retiredProgram);
    bindCounter(registry, "ftl.bbm.retired_erase", bb.retiredErase);
    registry.counter("ftl.bbm.retired_total", [&device] {
        return device.ftl().badBlocks().totalRetired();
    });
    registry.gauge("ftl.bbm.read_only", [&device] {
        return device.ftl().readOnly() ? 1.0 : 0.0;
    });

    // Wear gauges scan every block of every plane-pool; snapshot-only.
    const flash::FlashArray &array = device.array();
    registry.gauge(
        "ftl.wear.total_erases",
        [&array] {
            return static_cast<double>(ftl::computeWear(array).totalErases);
        },
        false);
    registry.gauge(
        "ftl.wear.max_erase_count",
        [&array] {
            return static_cast<double>(
                ftl::computeWear(array).maxEraseCount);
        },
        false);
    registry.gauge(
        "ftl.wear.min_erase_count",
        [&array] {
            return static_cast<double>(
                ftl::computeWear(array).minEraseCount);
        },
        false);
    registry.gauge(
        "ftl.wear.mean_erase_count",
        [&array] { return ftl::computeWear(array).meanEraseCount; },
        false);
    registry.gauge(
        "ftl.wear.worst_spread",
        [&array] {
            return static_cast<double>(ftl::computeWear(array).worstSpread);
        },
        false);
    registry.gauge(
        "ftl.wear.write_amplification",
        [&device] {
            return ftl::writeAmplification(device.array(), device.ftl());
        },
        false);

    auto bindArrayStats = [&registry](const std::string &base, auto getter) {
        registry.counter(base + ".reads",
                         [getter] { return getter().reads; });
        registry.counter(base + ".programs",
                         [getter] { return getter().programs; });
        registry.counter(base + ".erases",
                         [getter] { return getter().erases; });
        registry.counter(base + ".copyback_reads",
                         [getter] { return getter().copybackReads; });
        registry.counter(base + ".copyback_programs",
                         [getter] { return getter().copybackPrograms; });
        registry.counter(base + ".bytes_read",
                         [getter] { return getter().bytesRead; });
        registry.counter(base + ".bytes_programmed",
                         [getter] { return getter().bytesProgrammed; });
    };
    bindArrayStats("flash",
                   [&array] { return array.totalStats(); });
    const std::size_t pools = array.geometry().pools.size();
    for (std::size_t pool = 0; pool < pools; ++pool) {
        bindArrayStats("flash.pool" + std::to_string(pool),
                       [&array, pool]() -> flash::ArrayStats {
                           return array.stats(pool);
                       });
    }

    const fault::FaultStats &fs = device.faultInjector().stats();
    bindCounter(registry, "fault.reads_evaluated", fs.readsEvaluated);
    bindCounter(registry, "fault.clean_reads", fs.cleanReads);
    bindCounter(registry, "fault.corrected_reads", fs.correctedReads);
    bindCounter(registry, "fault.uncorrectable_reads", fs.uncorrectableReads);
    bindCounter(registry, "fault.retry_rounds", fs.retryRounds);
    bindCounter(registry, "fault.programs_evaluated", fs.programsEvaluated);
    bindCounter(registry, "fault.program_failures", fs.programFailures);
    bindCounter(registry, "fault.erases_evaluated", fs.erasesEvaluated);
    bindCounter(registry, "fault.erase_failures", fs.eraseFailures);
    bindCounter(registry, "fault.forced_faults", fs.forcedFaults);
}

void
registerReplayerMetrics(Registry &registry,
                        const host::ReplayStats &stats)
{
    bindCounter(registry, "host.replay.error_completions",
                stats.errorCompletions);
    bindCounter(registry, "host.replay.retries_scheduled",
                stats.retriesScheduled);
    bindCounter(registry, "host.replay.recovered_requests",
                stats.recoveredRequests);
    bindCounter(registry, "host.replay.failed_requests",
                stats.failedRequests);
    bindTimeCounter(registry, "host.replay.retry_penalty_ns",
                    stats.retryPenalty);
    bindCounter(registry, "host.replay.spo_events", stats.spoEvents);
    bindCounter(registry, "host.replay.spo_skipped", stats.spoSkipped);
    bindCounter(registry, "host.replay.reissued_requests",
                stats.reissuedRequests);
    bindCounter(registry, "host.replay.deferred_submissions",
                stats.deferredSubmissions);
    bindTimeCounter(registry, "host.replay.recovery_time_ns",
                    stats.recoveryTime);
}

} // namespace emmcsim::obs
