/**
 * @file
 * End-to-end benchmark of the simulator itself (host time, not
 * simulated time). One process runs one workload:
 *
 *   fig8_sweep    18 apps x {4PS, 8PS, HPS} at scale 1 on a worker pool
 *   replay_550k   Twitter x40 on HPS in memory + Table III/IV analysis
 *   aged_stream   Music x40 streamed from emmctrace-bin onto an aged,
 *                 shrunk HPS device (blocking GC must run)
 *   spo_snapshot  Twitter x10 on HPS: midpoint snapshot, resume, and a
 *                 replay with seeded power cuts
 *
 * Usage:
 *   e2e_bench --workload W --seed N --seconds S --trace 0|1
 *             [--scale X] [--jobs J] [--work-dir DIR] [--reference]
 *
 * --trace 0 sets up several times, then repeats the workload for S
 * seconds and reports end-to-end metrics. --trace 1 wraps every layer
 * call the benchmark makes in a span, adds a probe pass that calls
 * the layers the workload itself does not, and reports per-layer
 * metrics; spans go to DIR/spans-W-N.json. --reference runs one pass
 * on one worker and reports only the simulated outputs.
 *
 * The last stdout line is one JSON object: the simulated outputs (for
 * e2ebench/run.py to compare with the committed expected values),
 * the benchmark's own checks, and the metrics with their units.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/locality.hh"
#include "analysis/size_stats.hh"
#include "analysis/timing_stats.hh"
#include "check/durability.hh"
#include "core/binio.hh"
#include "core/cli_util.hh"
#include "core/experiment.hh"
#include "core/scheme.hh"
#include "core/sweep.hh"
#include "fault/spo.hh"
#include "host/replayer.hh"
#include "obs/json.hh"
#include "spans.hh"
#include "trace/binfmt.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;

namespace e2ebench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    unsigned jobs = 0;
    std::string workDir = ".";
    bool reference = false;
};

/**
 * A --trace 0 run sets up at least kMinSetups times and for at least
 * kMinSetupSeconds; setup_s is the median. Short setups get more reps.
 */
constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;
/** Passes per run at least, whatever --seconds says. */
constexpr std::size_t kMinPasses = 3;

/** One output record: field name -> formatted number, in order. */
using Item = std::vector<std::pair<std::string, std::string>>;
/** Named items, in a fixed order per workload. */
using Outputs = std::vector<std::pair<std::string, Item>>;

std::string num(double v) { return obs::JsonWriter::formatNumber(v); }
std::string num(std::uint64_t v) { return std::to_string(v); }

/** The simulated columns every replay is checked on. */
Item
caseItem(const core::CaseResult &r)
{
    return {
        {"requests", num(r.requests)},
        {"mrt_ms", num(r.meanResponseMs)},
        {"p99_ms", num(r.p99ResponseMs)},
        {"mean_service_ms", num(r.meanServiceMs)},
        {"no_wait_pct", num(r.noWaitPct)},
        {"space_util", num(r.spaceUtilization)},
        {"write_amp", num(r.writeAmplification)},
        {"gc_blocking_rounds", num(r.gcBlockingRounds)},
        {"gc_relocated_units", num(r.gcRelocatedUnits)},
        {"gc_erased_blocks", num(r.gcErasedBlocks)},
        {"erases", num(r.totalErases)},
        {"page_reads", num(r.pageReads)},
        {"page_programs", num(r.pagePrograms)},
        {"programs_4k_pool", num(r.programs4kPool)},
        {"programs_8k_pool", num(r.programs8kPool)},
        {"packed_commands", num(r.packedCommands)},
        {"host_retries", num(r.hostRetries)},
        {"host_failed", num(r.hostFailedRequests)},
    };
}

/** SplitMix64 finalizer: independent generator seeds per input. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Current resident set size in MB. */
double
rssMb()
{
    long pages = 0;
    long resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Peak resident set size of the process in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
since(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

/**
 * Host seconds of a fixed kernel that calls no simulator code: 4M
 * random updates to a 64 MB table, then a sort of 1M integers, the
 * mix of scattered memory traffic and branchy compute a replay does.
 * A code change leaves it where it is, so a time metric that moves
 * with it shows the machine moving, not the program.
 */
double
calibrate()
{
    static std::vector<std::uint64_t> table(8u << 20);
    std::vector<std::uint32_t> keys(1u << 20);
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::size_t i = 0; i < (4u << 20); ++i)
        table[next() & (table.size() - 1)] += i;
    for (std::uint32_t &k : keys)
        k = static_cast<std::uint32_t>(next());
    std::sort(keys.begin(), keys.end());
    volatile std::uint64_t sink = table[keys[7] & (table.size() - 1)];
    (void)sink;
    return since(t0);
}

/** Pass/fail tally behind `attempted` / `failed`. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (notes.size() < 20)
                notes.push_back(what);
        }
    }
};

/** State shared by the workloads and the run loop. */
struct Ctx
{
    Args args;
    SpanLog log;
    Checks checks;
    /** RSS growth over the largest makeDevice in setup. */
    double deviceRssMb = 0.0;
    /** Acknowledged writes a power cut lost (must stay 0). */
    std::uint64_t ackedLost = 0;
};

/** One pass of a workload: what it simulated and how long cases took. */
struct PassOut
{
    Outputs outputs;
    std::uint64_t requests = 0;
    std::vector<double> caseSeconds;
};

/** What the probe replays: one trace on one HPS configuration. */
struct ProbeInput
{
    const trace::Trace *trace = nullptr;
    core::ExperimentOptions opts;
    bool passCharacterizes = false; ///< skip analysis (pass does it)
};

trace::Trace
generate(Ctx &ctx, const std::string &app, double scale, std::uint64_t seed)
{
    ScopedSpan span(ctx.log, "workload.generate", app);
    const workload::AppProfile *p = workload::findProfile(app);
    if (p == nullptr)
        sim::fatal("unknown profile " + app);
    workload::TraceGenerator gen(*p, seed);
    return gen.generate(scale);
}

/** Build (and drop) one device per scheme, as every replay does. */
void
buildDevices(Ctx &ctx,
             const std::vector<std::pair<core::SchemeKind,
                                         core::ExperimentOptions>> &kinds)
{
    for (const auto &[kind, opts] : kinds) {
        sim::Simulator simulator;
        const emmc::EmmcConfig cfg =
            core::applyOptions(core::schemeConfig(kind), opts);
        const double before = rssMb();
        std::unique_ptr<emmc::EmmcDevice> dev;
        {
            ScopedSpan span(ctx.log, "core.makeDevice",
                            core::schemeName(kind));
            dev = core::makeDevice(simulator, kind, cfg);
        }
        ctx.deviceRssMb = std::max(ctx.deviceRssMb, rssMb() - before);
    }
}

/**
 * Feed @p dev's acknowledged writes into @p ledger. The devices here
 * have no RAM buffer, so every acknowledged write is owed durability.
 */
void
recordAcks(emmc::EmmcDevice &dev, check::WriteDurabilityLedger &ledger)
{
    dev.setTraceHook([&ledger](const emmc::CompletedRequest &c) {
        if (c.ok() && c.request.write)
            ledger.noteAcked(flash::Lpn{c.request.firstUnit().value()},
                             c.request.sizeUnits());
    });
}

/**
 * Check every owed write is still mapped. The verify is one check;
 * the LPNs it finds lost add to ackedLost.
 */
void
verifyAcks(Ctx &ctx, const check::WriteDurabilityLedger &ledger,
           const emmc::EmmcDevice &dev, const std::string &case_id)
{
    check::CheckContext cc("write-durability");
    {
        ScopedSpan span(ctx.log, "check.verify", case_id);
        ledger.verify(dev.ftl(), cc);
    }
    ctx.checks.expect(cc.failures() == 0,
                      case_id + ": acknowledged writes lost");
    ctx.ackedLost += cc.failures();
}

class Workload
{
  public:
    virtual ~Workload() = default;
    /**
     * Generate (and encode) the inputs; build one device per scheme.
     * Frees the previous inputs first, so repeated setups do not raise
     * the peak RSS.
     */
    virtual void setup(Ctx &ctx) = 0;
    virtual PassOut pass(Ctx &ctx) = 0;
    virtual ProbeInput probeInput() const = 0;
    /** Sweep workers a pass uses. */
    virtual unsigned workers(const Ctx &) const { return 1; }
};

class Fig8Sweep : public Workload
{
  public:
    void
    setup(Ctx &ctx) override
    {
        traces_.clear();
        const auto &profiles = workload::individualProfiles();
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            traces_.push_back(generate(ctx, profiles[i].name,
                                       ctx.args.scale,
                                       mixSeed(ctx.args.seed, i)));
        }
        buildDevices(ctx, {{core::SchemeKind::PS4, {}},
                           {core::SchemeKind::PS8, {}},
                           {core::SchemeKind::HPS, {}}});
    }

    unsigned
    workers(const Ctx &ctx) const override
    {
        return ctx.args.jobs;
    }

    PassOut
    pass(Ctx &ctx) override
    {
        struct Job
        {
            std::string label;
            const trace::Trace *trace;
            core::SchemeKind kind;
        };
        std::vector<Job> jobs_list;
        const auto &profiles = workload::individualProfiles();
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            for (core::SchemeKind kind : core::allSchemes()) {
                jobs_list.push_back({profiles[i].name + "/" +
                                         core::schemeName(kind),
                                     &traces_[i], kind});
            }
        }
        struct Done
        {
            Item item;
            std::uint64_t requests;
            std::uint64_t hostFailed;
            double seconds;
        };
        ScopedSpan sweep(ctx.log, "core.runOrdered");
        const std::int64_t parent = sweep.id();
        std::vector<Done> done = core::runOrdered(
            jobs_list.size(), ctx.args.jobs, [&](std::size_t i) {
                const Job &j = jobs_list[i];
                const auto t0 = Clock::now();
                ScopedSpan span(ctx.log, "core.runCase", j.label, parent);
                const core::CaseResult r = core::runCase(*j.trace, j.kind);
                return Done{caseItem(r), r.requests, r.hostFailedRequests,
                            since(t0)};
            });
        PassOut out;
        for (std::size_t i = 0; i < done.size(); ++i) {
            ctx.checks.expect(done[i].hostFailed == 0,
                              jobs_list[i].label + ": host-failed requests");
            out.requests += done[i].requests;
            out.caseSeconds.push_back(done[i].seconds);
            out.outputs.emplace_back(jobs_list[i].label,
                                     std::move(done[i].item));
        }
        return out;
    }

    ProbeInput
    probeInput() const override
    {
        // The longest of the 18 traces stands in for the sweep.
        const trace::Trace *longest = &traces_.front();
        for (const trace::Trace &t : traces_)
            if (t.size() > longest->size())
                longest = &t;
        return {longest, {}, false};
    }

  private:
    std::vector<trace::Trace> traces_;
};

class Replay550k : public Workload
{
  public:
    void
    setup(Ctx &ctx) override
    {
        trace_ = trace::Trace();
        trace_ = generate(ctx, "Twitter", 40.0 * ctx.args.scale,
                          mixSeed(ctx.args.seed, 100));
        buildDevices(ctx, {{core::SchemeKind::HPS, {}}});
    }

    PassOut
    pass(Ctx &ctx) override
    {
        PassOut out;
        const auto t0 = Clock::now();
        core::CaseResult r;
        {
            ScopedSpan span(ctx.log, "core.runCase", "Twitter/HPS");
            r = core::runCase(trace_, core::SchemeKind::HPS);
        }
        out.caseSeconds.push_back(since(t0));
        ctx.checks.expect(r.hostFailedRequests == 0,
                          "replay_550k: host-failed requests");
        ctx.checks.expect(r.requests == trace_.size(),
                          "replay_550k: not every request completed");
        out.requests = r.requests;
        out.outputs.emplace_back("Twitter/HPS", caseItem(r));

        ScopedSpan span(ctx.log, "analysis.characterize", "Twitter/HPS");
        const analysis::SizeStats ss = analysis::computeSizeStats(r.replayed);
        const analysis::TimingStats ts =
            analysis::computeTimingStats(r.replayed);
        const analysis::LocalityResult loc =
            analysis::computeLocality(r.replayed);
        out.outputs.emplace_back(
            "size_stats",
            Item{{"data_kb", num(ss.dataSizeKb)},
                 {"requests", num(ss.requests)},
                 {"max_kb", num(ss.maxSizeKb)},
                 {"ave_kb", num(ss.aveSizeKb)},
                 {"ave_read_kb", num(ss.aveReadKb)},
                 {"ave_write_kb", num(ss.aveWriteKb)},
                 {"write_req_pct", num(ss.writeReqPct)},
                 {"write_size_pct", num(ss.writeSizePct)}});
        out.outputs.emplace_back(
            "timing_stats",
            Item{{"duration_s", num(ts.durationSec)},
                 {"arrival_rate", num(ts.arrivalRate)},
                 {"access_rate_kbps", num(ts.accessRateKbps)},
                 {"no_wait_pct", num(ts.noWaitPct)},
                 {"mean_service_ms", num(ts.meanServiceMs)},
                 {"mean_response_ms", num(ts.meanResponseMs)},
                 {"mean_interarrival_ms", num(ts.meanInterArrivalMs)}});
        out.outputs.emplace_back(
            "locality", Item{{"spatial", num(loc.spatial)},
                             {"temporal", num(loc.temporal)},
                             {"sequential", num(loc.sequentialRequests)},
                             {"address_hits", num(loc.addressHits)}});
        return out;
    }

    ProbeInput
    probeInput() const override
    {
        return {&trace_, {}, true};
    }

  private:
    trace::Trace trace_;
};

class AgedStream : public Workload
{
  public:
    explicit AgedStream(const Ctx &ctx)
        : path_(ctx.args.workDir + "/aged_stream-" +
                std::to_string(ctx.args.seed) + "-" +
                std::to_string(getpid()) + ".bin")
    {
        // A 2GB device, 70% pre-filled with the default aging pattern
        // (part of the device, not of the seeded input): blocking GC
        // runs throughout the replay.
        opts_.capacityScale = 1.0 / 16.0;
        opts_.prefill = 0.70;
    }

    ~AgedStream() override { std::remove(path_.c_str()); }

    AgedStream(const AgedStream &) = delete;
    AgedStream &operator=(const AgedStream &) = delete;

    void
    setup(Ctx &ctx) override
    {
        trace_ = trace::Trace();
        trace_ = generate(ctx, "Music", 40.0 * ctx.args.scale,
                          mixSeed(ctx.args.seed, 200));
        {
            ScopedSpan span(ctx.log, "trace.encode", "Music");
            trace::saveBinTraceFile(trace_, path_);
        }
        buildDevices(ctx, {{core::SchemeKind::HPS, opts_}});
    }

    PassOut
    pass(Ctx &ctx) override
    {
        PassOut out;
        const auto t0 = Clock::now();
        trace::BinTraceSource src(path_);
        ctx.checks.expect(src.error().ok(), "aged_stream: cannot open " +
                                                path_);
        core::CaseResult r;
        {
            ScopedSpan span(ctx.log, "core.runCaseStream", "Music/HPS");
            r = core::runCaseStream(src, core::SchemeKind::HPS, opts_);
        }
        out.caseSeconds.push_back(since(t0));
        ctx.checks.expect(r.hostFailedRequests == 0,
                          "aged_stream: host-failed requests");
        ctx.checks.expect(r.requests == trace_.size(),
                          "aged_stream: not every request completed");
        ctx.checks.expect(r.gcBlockingRounds > 0,
                          "aged_stream: no blocking GC round ran");
        out.requests = r.requests;
        out.outputs.emplace_back("Music/HPS-aged", caseItem(r));
        return out;
    }

    ProbeInput
    probeInput() const override
    {
        return {&trace_, opts_, false};
    }

  private:
    std::string path_;
    core::ExperimentOptions opts_;
    trace::Trace trace_;
};

/** Power cuts per SPO replay. */
constexpr std::uint32_t kSpoCuts = 4;

class SpoSnapshot : public Workload
{
  public:
    void
    setup(Ctx &ctx) override
    {
        trace_ = trace::Trace();
        trace_ = generate(ctx, "Twitter", 10.0 * ctx.args.scale,
                          mixSeed(ctx.args.seed, 300));
        ticks_ = fault::drawSpoTicks(kSpoCuts, mixSeed(ctx.args.seed, 301),
                                     trace_.duration());
        buildDevices(ctx, {{core::SchemeKind::HPS, {}}});
    }

    PassOut
    pass(Ctx &ctx) override
    {
        PassOut out;
        core::ExperimentOptions snap_opts;
        snap_opts.snapshotAt = trace_.duration() / 2;

        auto t0 = Clock::now();
        core::CaseResult whole;
        {
            ScopedSpan span(ctx.log, "core.runCase", "snapshot");
            whole = core::runCase(trace_, core::SchemeKind::HPS, snap_opts);
        }
        out.caseSeconds.push_back(since(t0));
        ctx.checks.expect(!whole.snapshotImage.empty(),
                          "spo_snapshot: no snapshot captured");
        ctx.checks.expect(whole.hostFailedRequests == 0,
                          "spo_snapshot: host-failed requests");

        t0 = Clock::now();
        core::CaseResult resumed;
        {
            ScopedSpan span(ctx.log, "core.resumeCase", "resume");
            resumed = core::resumeCase(trace_, core::SchemeKind::HPS,
                                       whole.snapshotImage);
        }
        out.caseSeconds.push_back(since(t0));
        ctx.checks.expect(caseItem(resumed) == caseItem(whole) &&
                              sameReplay(resumed.replayed, whole.replayed),
                          "spo_snapshot: resumed run differs from the "
                          "uninterrupted run");
        out.requests += whole.requests;

        Item snap = caseItem(whole);
        snap.emplace_back("image_bytes", num(static_cast<std::uint64_t>(
                                             whole.snapshotImage.size())));
        out.outputs.emplace_back("Twitter/HPS-snapshot", std::move(snap));
        // Drop both images before the SPO run builds a third device.
        whole = core::CaseResult();
        resumed = core::CaseResult();

        t0 = Clock::now();
        Item spo = spoRun(ctx, out.requests);
        out.caseSeconds.push_back(since(t0));
        out.outputs.emplace_back("Twitter/HPS-spo", std::move(spo));
        return out;
    }

    ProbeInput
    probeInput() const override
    {
        return {&trace_, {}, false};
    }

  private:
    static bool
    sameReplay(const trace::Trace &a, const trace::Trace &b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const trace::TraceRecord &x = a[i];
            const trace::TraceRecord &y = b[i];
            if (x.arrival != y.arrival || x.serviceStart != y.serviceStart ||
                x.finish != y.finish || x.lbaSector != y.lbaSector ||
                x.sizeBytes != y.sizeBytes || x.op != y.op)
                return false;
        }
        return true;
    }

    /** Replay with seeded power cuts; the ledger proves no acked loss. */
    Item
    spoRun(Ctx &ctx, std::uint64_t &requests)
    {
        sim::Simulator simulator;
        auto dev = core::makeDevice(simulator, core::SchemeKind::HPS);
        check::WriteDurabilityLedger ledger(dev->ftl().logicalUnits(),
                                            /*write_through=*/true);
        recordAcks(*dev, ledger);
        host::Replayer rep(simulator, *dev);
        host::ReplayOptions ro;
        ro.spo.ticks = ticks_;
        trace::Trace replayed;
        {
            ScopedSpan span(ctx.log, "host.replaySpo", "spo");
            replayed = rep.replay(trace_, ro);
        }
        verifyAcks(ctx, ledger, *dev, "spo");
        ctx.checks.expect(rep.stats().failedRequests == 0,
                          "spo_snapshot: host-failed requests under SPO");
        ctx.checks.expect(rep.stats().spoEvents > 0,
                          "spo_snapshot: no power cut executed");

        sim::OnlineStats resp;
        for (const trace::TraceRecord &r : replayed.records())
            resp.add(sim::toMilliseconds(r.finish - r.arrival));
        requests += dev->stats().requests;
        return {
            {"requests", num(dev->stats().requests)},
            {"mrt_ms", num(resp.mean())},
            {"cuts", num(rep.stats().spoEvents)},
            {"skipped_cuts", num(rep.stats().spoSkipped)},
            {"torn_pages", num(dev->spoStats().tornPages)},
            {"reissued", num(rep.stats().reissuedRequests)},
            {"recovery_ms", num(sim::toMilliseconds(
                                rep.stats().recoveryTime))},
            {"acked_required", num(ledger.requiredCount())},
            {"page_programs", num(dev->array().totalStats().programs)},
        };
    }

    trace::Trace trace_;
    std::vector<sim::Time> ticks_;
};

/** Per-layer figures only the probe measures. */
struct ProbeOut
{
    std::uint64_t decodedRecords = 0;
    std::uint64_t events = 0;
    std::uint64_t retries = 0;
    double imageMb = 0.0;
    double obsOverheadFrac = 0.0;
};

/**
 * Call, once each, the layers a workload's pass does not reach by
 * itself, on the workload's own input: encode + decode it, replay it
 * on a directly built simulator/device/Replayer, characterize the
 * replay, save and load the device, cut its power, and replay it
 * again with observability on and off.
 */
ProbeOut
probe(Ctx &ctx, const ProbeInput &in)
{
    ProbeOut out;
    const trace::Trace &t = *in.trace;
    ScopedSpan root(ctx.log, "bench.probe", t.name());

    const std::string path = ctx.args.workDir + "/probe-" +
                             std::to_string(getpid()) + ".bin";
    {
        ScopedSpan span(ctx.log, "trace.encode", t.name());
        trace::saveBinTraceFile(t, path);
    }
    {
        trace::BinTraceSource src(path);
        std::vector<trace::TraceRecord> buf(4096);
        ScopedSpan span(ctx.log, "trace.decode", t.name());
        while (const std::size_t n = src.next(buf.data(), buf.size()))
            out.decodedRecords += n;
        ctx.checks.expect(src.error().ok() &&
                              out.decodedRecords == t.size(),
                          "probe: decoded trace differs from the input");
    }
    std::remove(path.c_str());

    const emmc::EmmcConfig cfg =
        core::applyOptions(core::schemeConfig(core::SchemeKind::HPS),
                           in.opts);
    sim::Simulator simulator;
    std::unique_ptr<emmc::EmmcDevice> dev;
    {
        ScopedSpan span(ctx.log, "core.makeDevice", "probe");
        dev = core::makeDevice(simulator, core::SchemeKind::HPS, cfg);
    }
    check::WriteDurabilityLedger ledger(dev->ftl().logicalUnits(),
                                        /*write_through=*/true);
    recordAcks(*dev, ledger);
    host::Replayer rep(simulator, *dev);
    trace::Trace replayed;
    {
        ScopedSpan span(ctx.log, "host.replay", t.name());
        replayed = rep.replay(t);
    }
    out.events = simulator.executedCount();
    out.retries = rep.stats().retriesScheduled;

    if (!in.passCharacterizes) {
        ScopedSpan span(ctx.log, "analysis.characterize", t.name());
        analysis::computeSizeStats(replayed);
        analysis::computeTimingStats(replayed);
        analysis::computeLocality(replayed);
    }
    replayed = trace::Trace();

    std::string image;
    {
        ScopedSpan span(ctx.log, "emmc.save", t.name());
        core::BinWriter w;
        dev->save(w);
        image = w.take();
    }
    out.imageMb = static_cast<double>(image.size()) / (1024.0 * 1024.0);
    {
        sim::Simulator sim2;
        auto dev2 = core::makeDevice(sim2, core::SchemeKind::HPS, cfg);
        sim2.restoreClock(simulator.now());
        core::BinReader r(image);
        {
            ScopedSpan span(ctx.log, "emmc.load", t.name());
            dev2->load(r);
        }
        ctx.checks.expect(r.ok() && r.remaining() == 0,
                          "probe: device image did not load back");
    }
    image = std::string();

    {
        ScopedSpan span(ctx.log, "ftl.powerFailAndRecover", t.name());
        dev->ftl().powerFailAndRecover(simulator.now());
    }
    verifyAcks(ctx, ledger, *dev, t.name());
    dev.reset();

    // Observability cost: metrics + attribution on vs off, alternating.
    core::ExperimentOptions on = in.opts;
    on.obs.metrics = true;
    on.obs.attribution = true;
    std::vector<double> off_s;
    std::vector<double> on_s;
    Item off_item;
    for (int i = 0; i < 2; ++i) {
        for (bool obs_on : {false, true}) {
            const auto t0 = Clock::now();
            ScopedSpan span(ctx.log,
                            obs_on ? "core.runCase.obsOn"
                                   : "core.runCase.obsOff",
                            t.name());
            const core::CaseResult r = core::runCase(
                t, core::SchemeKind::HPS, obs_on ? on : in.opts);
            (obs_on ? on_s : off_s).push_back(since(t0));
            if (off_item.empty())
                off_item = caseItem(r);
            ctx.checks.expect(caseItem(r) == off_item,
                              "probe: observability changed the replay");
        }
    }
    out.obsOverheadFrac = median(on_s) / median(off_s) - 1.0;
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const Ctx &ctx)
{
    const std::string &w = ctx.args.workload;
    if (w == "fig8_sweep")
        return std::make_unique<Fig8Sweep>();
    if (w == "replay_550k")
        return std::make_unique<Replay550k>();
    if (w == "aged_stream")
        return std::make_unique<AgedStream>(ctx);
    if (w == "spo_snapshot")
        return std::make_unique<SpoSnapshot>();
    return nullptr;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** Sum of span durations named @p name, optionally in one phase. */
double
spanTotal(const SpanLog &log, const std::string &name,
          const std::string &phase = {})
{
    double total = 0.0;
    for (const Span &s : log.spans())
        if (s.name == name && (phase.empty() || s.phase == phase))
            total += s.end - s.start;
    return total;
}

void
printResult(const Ctx &ctx, const Outputs &outputs, const Metrics &metrics)
{
    std::ostringstream os;
    obs::JsonWriter j(os);
    j.beginObject();
    j.field("workload", ctx.args.workload);
    j.field("seed", ctx.args.seed);
    j.field("scale", ctx.args.scale);
    j.key("outputs").beginObject();
    for (const auto &[name, item] : outputs) {
        j.key(name).beginObject();
        for (const auto &[k, v] : item) {
            // Pre-formatted numbers: integers stay integers, doubles
            // keep their shortest round-trip digits.
            j.key(k);
            if (v.find_first_of(".eE-") == std::string::npos)
                j.value(static_cast<std::uint64_t>(std::stoull(v)));
            else
                j.value(std::stod(v));
        }
        j.endObject();
    }
    j.endObject();
    j.field("attempted", ctx.checks.attempted);
    j.field("failed", ctx.checks.failed);
    j.key("notes").beginArray();
    for (const std::string &n : ctx.checks.notes)
        j.value(n);
    j.endArray();
    j.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        j.key(m.name).beginObject();
        j.field("value", m.value);
        j.field("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::cout << os.str() << std::endl;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            sim::fatal(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        bool ok = true;
        if (f == "--workload") {
            a.workload = need(i);
        } else if (f == "--seed") {
            ok = core::parseU64(need(i), a.seed);
        } else if (f == "--seconds") {
            ok = core::parseF64(need(i), a.seconds) && a.seconds > 0.0;
        } else if (f == "--trace") {
            const std::string v = need(i);
            ok = v == "0" || v == "1";
            a.trace = v == "1";
        } else if (f == "--scale") {
            ok = core::parseF64(need(i), a.scale) && a.scale > 0.0;
        } else if (f == "--jobs") {
            ok = core::parseJobs(need(i), a.jobs);
        } else if (f == "--work-dir") {
            a.workDir = need(i);
        } else if (f == "--reference") {
            a.reference = true;
        } else {
            sim::fatal("unknown argument: " + f);
        }
        if (!ok)
            sim::fatal("bad value for " + f);
    }
    return a;
}

int
run(int argc, char **argv)
{
    Ctx ctx;
    ctx.args = parseArgs(argc, argv);
    // Up to four sweep workers, as the repo's sweep tools run by
    // default on a 4-vCPU machine, without tying the benchmark's work
    // to the core count of a larger one.
    if (ctx.args.jobs == 0)
        ctx.args.jobs = std::min(4u, core::effectiveJobs(0));
    std::unique_ptr<Workload> w = makeWorkload(ctx);
    if (!w) {
        std::cerr << "unknown workload '" << ctx.args.workload
                  << "' (fig8_sweep, replay_550k, aged_stream, "
                     "spo_snapshot)\n";
        return 2;
    }

    if (ctx.args.reference) {
        // Reference outputs: one setup, one pass, one worker.
        ctx.args.jobs = 1;
        w->setup(ctx);
        const PassOut p = w->pass(ctx);
        printResult(ctx, p.outputs, {});
        return 0;
    }

    Outputs first;
    auto checkPass = [&](const PassOut &p) {
        if (first.empty())
            first = p.outputs;
        else
            ctx.checks.expect(p.outputs == first,
                              "a repeated pass simulated different outputs");
    };

    if (!ctx.args.trace) {
        std::vector<double> setup_s;
        const auto setup_start = Clock::now();
        while (setup_s.size() < kMinSetups ||
               since(setup_start) < kMinSetupSeconds) {
            const auto t0 = Clock::now();
            w->setup(ctx);
            setup_s.push_back(since(t0));
        }
        std::vector<double> wall_s;
        std::vector<double> case_s;
        std::uint64_t requests = 0;
        const auto start = Clock::now();
        while (wall_s.size() < kMinPasses ||
               since(start) < ctx.args.seconds) {
            const auto t0 = Clock::now();
            PassOut p = w->pass(ctx);
            wall_s.push_back(since(t0));
            requests = p.requests;
            case_s.insert(case_s.end(), p.caseSeconds.begin(),
                          p.caseSeconds.end());
            checkPass(p);
        }
        const double wall = median(wall_s);
        printResult(ctx, first,
                    {{"setup_s", median(setup_s), "s"},
                     {"wall_s", wall, "s"},
                     {"req_per_s", static_cast<double>(requests) / wall,
                      "1/s"},
                     {"peak_rss_mb", peakRssMb(), "MB"},
                     {"case_p50_s", percentile(case_s, 50.0), "s"},
                     {"case_p80_s", percentile(case_s, 80.0), "s"}});
        return 0;
    }

    // Traced run: one traced setup, then passes alternating untraced
    // (overhead baseline) and traced, then the probe.
    ctx.log.setEnabled(true);
    ctx.log.setPhase("setup");
    {
        ScopedSpan root(ctx.log, "bench.setup");
        w->setup(ctx);
    }
    ctx.log.setPhase("pass");
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    std::vector<double> calib_s;
    std::uint64_t requests = 0;
    const auto start = Clock::now();
    while (traced_s.size() < 2 || since(start) < ctx.args.seconds) {
        for (bool traced : {false, true}) {
            calib_s.push_back(calibrate());
            ctx.log.setEnabled(traced);
            const auto t0 = Clock::now();
            PassOut p;
            {
                ScopedSpan root(ctx.log, "bench.pass");
                p = w->pass(ctx);
            }
            (traced ? traced_s : plain_s).push_back(since(t0));
            requests = p.requests;
            checkPass(p);
        }
    }
    ctx.log.setEnabled(true);
    ctx.log.setPhase("probe");
    const ProbeOut probed = probe(ctx, w->probeInput());

    const std::string spans_path = ctx.args.workDir + "/spans-" +
                                   ctx.args.workload + "-" +
                                   std::to_string(ctx.args.seed) + ".json";
    {
        std::ofstream os(spans_path);
        ctx.log.writeChromeTrace(os);
        if (!os)
            std::cerr << "cannot write " << spans_path << "\n";
    }

    const double passes = static_cast<double>(traced_s.size());
    auto perPass = [&](const std::string &name) {
        return spanTotal(ctx.log, name, "pass") / passes;
    };
    auto probeTotal = [&](const std::string &name) {
        return spanTotal(ctx.log, name, "probe");
    };
    // Simulated outputs of one pass: a field summed over the items
    // that have it, and how many do.
    auto field = [&](const std::string &name) {
        std::pair<double, double> sum_n{0.0, 0.0};
        for (const auto &[item_name, it] : first)
            for (const auto &[k, v] : it)
                if (k == name) {
                    sum_n.first += std::stod(v);
                    sum_n.second += 1.0;
                }
        return sum_n;
    };
    auto item = [&](const std::string &name) { return field(name).first; };
    const auto [write_amp, wa_n] = field("write_amp");
    // The snapshot pass's own midpoint image where there is one, else
    // the probe's image after its full replay.
    const auto [image_bytes, image_n] = field("image_bytes");
    const double image_mb =
        image_n > 0 ? image_bytes / image_n / (1024.0 * 1024.0)
                    : probed.imageMb;
    double traced_total = 0.0;
    for (double t : traced_s)
        traced_total += t;

    double case_total = 0.0;
    for (const char *n : {"core.runCase", "core.runCaseStream",
                          "core.resumeCase", "host.replaySpo"})
        case_total += perPass(n);
    const double analysis_s = w->probeInput().passCharacterizes
                                  ? perPass("analysis.characterize")
                                  : probeTotal("analysis.characterize");
    const double decode_s = probeTotal("trace.decode");
    const double replay_s = probeTotal("host.replay");

    // Self time per layer, pass spans averaged per traced pass.
    const std::vector<double> self = ctx.log.selfSeconds();
    const char *layers[] = {"bench", "workload", "trace", "core", "host",
                            "emmc",  "ftl",      "analysis", "check"};
    std::vector<double> layer_self(std::size(layers), 0.0);
    for (std::size_t i = 0; i < self.size(); ++i) {
        const Span &s = ctx.log.spans()[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        for (std::size_t l = 0; l < std::size(layers); ++l)
            if (layer == layers[l])
                layer_self[l] += s.phase == "pass" ? self[i] / passes
                                                   : self[i];
    }

    Metrics m = {
        {"workload.generate_s",
         spanTotal(ctx.log, "workload.generate", "setup"), "s"},
        {"trace.encode_s", probeTotal("trace.encode"), "s"},
        {"trace.decode_s", decode_s, "s"},
        {"trace.decode_rec_per_s",
         static_cast<double>(probed.decodedRecords) / decode_s, "1/s"},
        {"core.make_device_s",
         spanTotal(ctx.log, "core.makeDevice", "setup"), "s"},
        {"core.device_rss_mb", ctx.deviceRssMb, "MB"},
        {"core.sweep_efficiency",
         case_total / (traced_total / passes * w->workers(ctx)), "ratio"},
        {"sim.events", static_cast<double>(probed.events), "count"},
        {"sim.ns_per_event",
         replay_s * 1e9 / static_cast<double>(probed.events), "ns"},
        {"host.replay_s", replay_s, "s"},
        {"host.retries", static_cast<double>(probed.retries), "count"},
        {"emmc.requests", static_cast<double>(requests), "count"},
        {"emmc.packed_commands", item("packed_commands"), "count"},
        {"ftl.gc_blocking_rounds", item("gc_blocking_rounds"), "count"},
        {"ftl.gc_relocated_units", item("gc_relocated_units"), "count"},
        {"ftl.write_amp", wa_n > 0 ? write_amp / wa_n : 0.0, "ratio"},
        {"flash.page_reads", item("page_reads"), "count"},
        {"flash.page_programs", item("page_programs"), "count"},
        {"flash.erases", item("erases"), "count"},
        {"ftl.recover_s", probeTotal("ftl.powerFailAndRecover"), "s"},
        {"core.snapshot_save_s", probeTotal("emmc.save"), "s"},
        {"core.snapshot_load_s", probeTotal("emmc.load"), "s"},
        {"core.resume_s", perPass("core.resumeCase"), "s"},
        {"core.image_mb", image_mb, "MB"},
        {"analysis.characterize_s", analysis_s, "s"},
        {"obs.overhead_frac", probed.obsOverheadFrac, "ratio"},
        {"check.acked_lost", static_cast<double>(ctx.ackedLost), "count"},
        {"bench.trace_overhead_frac",
         median(traced_s) / median(plain_s) - 1.0, "ratio"},
        {"bench.calib_s", median(calib_s), "s"},
    };
    for (std::size_t l = 0; l < std::size(layers); ++l)
        m.push_back({std::string(layers[l]) + ".self_s", layer_self[l], "s"});
    printResult(ctx, first, m);
    return 0;
}

} // namespace
} // namespace e2ebench

int
main(int argc, char **argv)
{
    return e2ebench::run(argc, argv);
}
