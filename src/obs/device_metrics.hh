/**
 * @file
 * Registry binders: one call registers every metric a subsystem
 * exposes, under the project's canonical hierarchical names
 * ("emmc.requests", "ftl.gc.relocated_units", "fault.corrected_reads").
 *
 * Binders register *closures over the subsystems' existing stats
 * structs* — nothing is added to the simulation hot paths, and the
 * names stay consistent across the CLI, the case studies, and the
 * benchmarks because they are spelled exactly once, here.
 *
 * Lifetime: the bound device / replayer must outlive every snapshot or
 * sample taken from the registry. Callers that need values past the
 * device's lifetime keep the MetricsSnapshot (values only), not the
 * registry.
 */

#ifndef EMMCSIM_OBS_DEVICE_METRICS_HH
#define EMMCSIM_OBS_DEVICE_METRICS_HH

#include "obs/metrics.hh"

namespace emmcsim::emmc {
class EmmcDevice;
}
namespace emmcsim::host {
struct ReplayStats;
}
namespace emmcsim::sim {
class Simulator;
}

namespace emmcsim::obs {

/**
 * Register every device-side metric of @p device: controller counters
 * and latency summaries ("emmc.*"), packing / power / RAM-buffer
 * counters ("emmc.packing.*", "emmc.power.*", "emmc.buffer.*"), FTL,
 * GC, bad-block and wear metrics ("ftl.*", "ftl.gc.*", "ftl.bbm.*",
 * "ftl.wear.*"), flash-operation counters totalled and per pool
 * ("flash.*", "flash.poolN.*"), and fault-injector counters
 * ("fault.*", registered even when injection is disabled so reports
 * always carry the subsystem).
 *
 * Wear gauges walk every block of the array and are registered as
 * snapshot-only (sampled == false).
 */
void registerDeviceMetrics(Registry &registry,
                           const emmc::EmmcDevice &device);

/** Register host-side replay/retry counters ("host.replay.*"). */
void registerReplayerMetrics(Registry &registry,
                             const host::ReplayStats &stats);

} // namespace emmcsim::obs

#endif // EMMCSIM_OBS_DEVICE_METRICS_HH
