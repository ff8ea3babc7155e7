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
registerDeviceMetrics(Registry &registry, const emmc::EmmcDevice &device,
                      const std::string &prefix)
{
    const std::string &p = prefix;

    const emmc::DeviceStats &d = device.stats();
    bindCounter(registry, p + "emmc.requests", d.requests);
    bindCounter(registry, p + "emmc.read_requests", d.readRequests);
    bindCounter(registry, p + "emmc.write_requests", d.writeRequests);
    bindCounter(registry, p + "emmc.bytes_read", d.bytesRead);
    bindCounter(registry, p + "emmc.bytes_written", d.bytesWritten);
    bindCounter(registry, p + "emmc.no_wait_requests", d.noWaitRequests);
    bindCounter(registry, p + "emmc.read_error_requests",
                d.readErrorRequests);
    bindCounter(registry, p + "emmc.write_rejected_requests",
                d.writeRejectedRequests);
    bindCounter(registry, p + "emmc.commands", d.commands);
    bindTimeCounter(registry, p + "emmc.busy_time_ns", d.busyTime);
    registry.gauge(p + "emmc.queue_depth", [&device] {
        return static_cast<double>(device.queueDepth());
    });
    registry.gauge(p + "emmc.space_utilization",
                   [&device] { return device.spaceUtilization(); });
    registry.summary(p + "emmc.response_ms", &d.responseMs);
    registry.summary(p + "emmc.service_ms", &d.serviceMs);
    registry.summary(p + "emmc.wait_ms", &d.waitMs);
    registry.summary(p + "emmc.queue_depth_at_arrival",
                     &d.queueDepthAtArrival);

    const emmc::PackingStats &pk = device.packingStats();
    bindCounter(registry, p + "emmc.packing.packed_commands",
                pk.packedCommands);
    bindCounter(registry, p + "emmc.packing.packed_requests",
                pk.packedRequests);

    const emmc::PowerStats &pw = device.powerStats();
    bindCounter(registry, p + "emmc.power.wakeups", pw.wakeups);
    bindTimeCounter(registry, p + "emmc.power.low_power_time_ns",
                    pw.lowPowerTime);
    bindTimeCounter(registry, p + "emmc.power.active_time_ns",
                    pw.activeTime);
    registry.gauge(p + "emmc.power.energy_mj",
                   [&device] { return device.power().energyMj(); });

    const emmc::BufferStats &bf = device.bufferStats();
    bindCounter(registry, p + "emmc.buffer.read_lookups", bf.readLookups);
    bindCounter(registry, p + "emmc.buffer.read_hits", bf.readHits);
    bindCounter(registry, p + "emmc.buffer.write_lookups",
                bf.writeLookups);
    bindCounter(registry, p + "emmc.buffer.write_hits", bf.writeHits);
    bindCounter(registry, p + "emmc.buffer.evicted_dirty",
                bf.evictedDirty);

    const ftl::FtlStats &f = device.ftl().stats();
    bindCounter(registry, p + "ftl.host_units_written",
                f.hostUnitsWritten);
    bindCounter(registry, p + "ftl.host_bytes_consumed",
                f.hostBytesConsumed);
    bindCounter(registry, p + "ftl.host_units_read", f.hostUnitsRead);
    bindCounter(registry, p + "ftl.host_read_ops", f.hostReadOps);
    bindCounter(registry, p + "ftl.host_program_ops", f.hostProgramOps);
    bindCounter(registry, p + "ftl.overflow_redirects",
                f.overflowRedirects);
    bindCounter(registry, p + "ftl.relocated_programs",
                f.relocatedPrograms);
    bindCounter(registry, p + "ftl.uncorrectable_reads",
                f.uncorrectableReads);
    bindCounter(registry, p + "ftl.rejected_writes", f.rejectedWrites);

    const emmc::SpoStats &sp = device.spoStats();
    bindCounter(registry, p + "emmc.spo.power_cuts", sp.powerCuts);
    bindCounter(registry, p + "emmc.spo.notified_cuts", sp.notifiedCuts);
    bindCounter(registry, p + "emmc.spo.dropped_in_flight",
                sp.droppedInFlight);
    bindCounter(registry, p + "emmc.spo.dropped_queued",
                sp.droppedQueued);
    bindCounter(registry, p + "emmc.spo.lost_dirty_units",
                sp.lostDirtyUnits);
    bindCounter(registry, p + "emmc.spo.torn_pages", sp.tornPages);
    bindTimeCounter(registry, p + "emmc.spo.recovery_time_ns",
                    sp.recoveryTime);

    const ftl::JournalStats &jn = device.ftl().journal().stats();
    bindCounter(registry, p + "ftl.journal.write_records",
                jn.writeRecords);
    bindCounter(registry, p + "ftl.journal.reloc_records",
                jn.relocRecords);
    bindCounter(registry, p + "ftl.journal.trim_records",
                jn.trimRecords);
    bindCounter(registry, p + "ftl.journal.pages_flushed",
                jn.pagesFlushed);
    bindCounter(registry, p + "ftl.journal.barrier_flushes",
                jn.barrierFlushes);
    bindCounter(registry, p + "ftl.journal.checkpoints", jn.checkpoints);
    bindCounter(registry, p + "ftl.journal.dropped_trims",
                jn.droppedTrims);
    registry.counter(p + "ftl.journal.seq", [&device] {
        return device.ftl().journal().seq();
    });
    registry.counter(p + "ftl.journal.durable_seq", [&device] {
        return device.ftl().journal().durableSeq();
    });

    const ftl::GcStats &gc = device.ftl().gcStats();
    bindCounter(registry, p + "ftl.gc.blocking_rounds",
                gc.blockingRounds);
    bindCounter(registry, p + "ftl.gc.idle_rounds", gc.idleRounds);
    bindCounter(registry, p + "ftl.gc.idle_steps", gc.idleSteps);
    bindCounter(registry, p + "ftl.gc.relocated_units",
                gc.relocatedUnits);
    bindCounter(registry, p + "ftl.gc.erased_blocks", gc.erasedBlocks);
    bindCounter(registry, p + "ftl.gc.retired_blocks", gc.retiredBlocks);
    bindCounter(registry, p + "ftl.gc.scrub_steps", gc.scrubSteps);
    bindTimeCounter(registry, p + "ftl.gc.blocking_time_ns",
                    gc.blockingTime);
    bindTimeCounter(registry, p + "ftl.gc.idle_time_ns", gc.idleTime);

    const ftl::BbmStats &bb = device.ftl().badBlocks().stats();
    bindCounter(registry, p + "ftl.bbm.program_failures",
                bb.programFailures);
    bindCounter(registry, p + "ftl.bbm.erase_failures", bb.eraseFailures);
    bindCounter(registry, p + "ftl.bbm.relocated_programs",
                bb.relocatedPrograms);
    bindCounter(registry, p + "ftl.bbm.retired_program",
                bb.retiredProgram);
    bindCounter(registry, p + "ftl.bbm.retired_erase", bb.retiredErase);
    registry.counter(p + "ftl.bbm.retired_total", [&device] {
        return device.ftl().badBlocks().totalRetired();
    });
    registry.gauge(p + "ftl.bbm.read_only", [&device] {
        return device.ftl().readOnly() ? 1.0 : 0.0;
    });

    // Wear gauges scan every block of every plane-pool; snapshot-only.
    const flash::FlashArray &array = device.array();
    registry.gauge(
        p + "ftl.wear.total_erases",
        [&array] {
            return static_cast<double>(ftl::computeWear(array).totalErases);
        },
        false);
    registry.gauge(
        p + "ftl.wear.max_erase_count",
        [&array] {
            return static_cast<double>(
                ftl::computeWear(array).maxEraseCount);
        },
        false);
    registry.gauge(
        p + "ftl.wear.min_erase_count",
        [&array] {
            return static_cast<double>(
                ftl::computeWear(array).minEraseCount);
        },
        false);
    registry.gauge(
        p + "ftl.wear.mean_erase_count",
        [&array] { return ftl::computeWear(array).meanEraseCount; },
        false);
    registry.gauge(
        p + "ftl.wear.worst_spread",
        [&array] {
            return static_cast<double>(ftl::computeWear(array).worstSpread);
        },
        false);
    registry.gauge(
        p + "ftl.wear.write_amplification",
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
    bindArrayStats(p + "flash",
                   [&array] { return array.totalStats(); });
    const std::size_t pools = array.geometry().pools.size();
    for (std::size_t pool = 0; pool < pools; ++pool) {
        bindArrayStats(p + "flash.pool" + std::to_string(pool),
                       [&array, pool]() -> flash::ArrayStats {
                           return array.stats(pool);
                       });
    }

    const fault::FaultStats &fs = device.faultInjector().stats();
    bindCounter(registry, p + "fault.reads_evaluated", fs.readsEvaluated);
    bindCounter(registry, p + "fault.clean_reads", fs.cleanReads);
    bindCounter(registry, p + "fault.corrected_reads", fs.correctedReads);
    bindCounter(registry, p + "fault.uncorrectable_reads",
                fs.uncorrectableReads);
    bindCounter(registry, p + "fault.retry_rounds", fs.retryRounds);
    bindCounter(registry, p + "fault.programs_evaluated",
                fs.programsEvaluated);
    bindCounter(registry, p + "fault.program_failures",
                fs.programFailures);
    bindCounter(registry, p + "fault.erases_evaluated",
                fs.erasesEvaluated);
    bindCounter(registry, p + "fault.erase_failures", fs.eraseFailures);
    bindCounter(registry, p + "fault.forced_faults", fs.forcedFaults);
}

void
registerReplayerMetrics(Registry &registry,
                        const host::ReplayStats &stats,
                        const std::string &prefix)
{
    const std::string &p = prefix;
    bindCounter(registry, p + "host.replay.error_completions",
                stats.errorCompletions);
    bindCounter(registry, p + "host.replay.retries_scheduled",
                stats.retriesScheduled);
    bindCounter(registry, p + "host.replay.recovered_requests",
                stats.recoveredRequests);
    bindCounter(registry, p + "host.replay.failed_requests",
                stats.failedRequests);
    bindTimeCounter(registry, p + "host.replay.retry_penalty_ns",
                    stats.retryPenalty);
    bindCounter(registry, p + "host.replay.spo_events", stats.spoEvents);
    bindCounter(registry, p + "host.replay.spo_skipped",
                stats.spoSkipped);
    bindCounter(registry, p + "host.replay.reissued_requests",
                stats.reissuedRequests);
    bindCounter(registry, p + "host.replay.deferred_submissions",
                stats.deferredSubmissions);
    bindTimeCounter(registry, p + "host.replay.recovery_time_ns",
                    stats.recoveryTime);
}

} // namespace emmcsim::obs
