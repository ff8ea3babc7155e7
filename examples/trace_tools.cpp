/**
 * @file
 * Trace tooling walkthrough: generate an application trace, save it
 * in the BIOtracer-style text format, load it back, merge it with a
 * second app into a combo stream (Section III-D), replay the combo,
 * and save the replayed trace with its measured timestamps.
 *
 * Usage: trace_tools [out-dir] [scale]
 */

#include <iostream>

#include "core/cli_util.hh"
#include "core/scheme.hh"
#include "host/replayer.hh"
#include "workload/combo.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

int
main(int argc, char **argv)
{
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    double scale = 0.1;
    if (argc > 3 ||
        (argc > 2 && (!core::parseF64(argv[2], scale) || scale <= 0))) {
        std::cerr << "usage: trace_tools [out-dir] [scale]\n"
                     "  scale: a positive number\n";
        return 2;
    }

    // 1. Generate and persist a single-app trace.
    const workload::AppProfile *music = workload::findProfile("Music");
    workload::TraceGenerator gen(*music, /*seed=*/3);
    trace::Trace music_trace = gen.generate(scale);
    const std::string music_path = out_dir + "/music.emmctrace";
    music_trace.saveFile(music_path);
    std::cout << "wrote " << music_trace.size() << " requests to "
              << music_path << "\n";

    // 2. Load it back and verify integrity.
    trace::Trace loaded = trace::Trace::loadFile(music_path);
    std::string problem = loaded.validate();
    std::cout << "reloaded " << loaded.size() << " requests ("
              << (problem.empty() ? "valid" : problem) << ")\n";

    // 3. Compose a concurrent-app stream the way a user runs
    //    WebBrowsing while listening to Music.
    trace::Trace combo =
        workload::generateComboByMerge("Music/WB", /*seed=*/3, scale);
    std::cout << "merged combo \"" << combo.name() << "\" has "
              << combo.size() << " requests over "
              << sim::toSeconds(combo.duration()) << " s\n";

    // 4. Replay the combo on an HPS device and persist the replayed
    //    trace: records now carry BIOtracer's service/finish stamps.
    sim::Simulator s;
    auto dev = core::makeDevice(s, core::SchemeKind::HPS);
    host::Replayer rep(s, *dev);
    trace::Trace replayed = rep.replay(combo);
    const std::string replay_path = out_dir + "/music_wb.replayed";
    replayed.saveFile(replay_path);
    std::cout << "replayed on HPS: MRT "
              << dev->stats().responseMs.mean() << " ms, NoWait "
              << 100.0 * dev->stats().noWaitRatio() << "% -> "
              << replay_path << "\n";
    return 0;
}
