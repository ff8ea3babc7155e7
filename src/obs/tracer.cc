#include "obs/tracer.hh"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/json.hh"

namespace emmcsim::obs {

namespace {

const char *
opName(flash::OpKind kind)
{
    switch (kind) {
      case flash::OpKind::Read: return "read";
      case flash::OpKind::Program: return "program";
      case flash::OpKind::Erase: return "erase";
      case flash::OpKind::CopybackRead: return "copyback_read";
      case flash::OpKind::CopybackProgram: return "copyback_program";
    }
    return "?";
}

const char *
opStatusName(flash::OpStatus status)
{
    switch (status) {
      case flash::OpStatus::Ok: return "ok";
      case flash::OpStatus::Corrected: return "corrected";
      case flash::OpStatus::Uncorrectable: return "uncorrectable";
      case flash::OpStatus::ProgramFail: return "program_fail";
      case flash::OpStatus::EraseFail: return "erase_fail";
    }
    return "?";
}

const char *
requestStatusName(emmc::RequestStatus status)
{
    switch (status) {
      case emmc::RequestStatus::Ok: return "ok";
      case emmc::RequestStatus::ReadError: return "read_error";
      case emmc::RequestStatus::WriteRejected: return "write_rejected";
    }
    return "?";
}

/** Chrome trace_event timestamps are microseconds; keep the
 * nanosecond fraction. */
double
toMicros(sim::Time t)
{
    return static_cast<double>(t) / 1000.0;
}

} // namespace

void
RequestTracer::onRequest(const emmc::CompletedRequest &completed)
{
    RequestSpan s;
    s.id = completed.request.id;
    s.arrival = completed.request.arrival;
    s.serviceStart = completed.serviceStart;
    s.finish = completed.finish;
    s.lbaSector = completed.request.lbaSector;
    s.sizeBytes = completed.request.sizeBytes;
    s.write = completed.request.write;
    s.waited = completed.waited;
    s.packed = completed.packed;
    s.status = completed.status;
    s.phases = completed.phases;
    requests_.push_back(s);
}

void
RequestTracer::onFlashOp(flash::OpKind kind, const flash::PageAddr &addr,
                         const flash::OpResult &result,
                         std::uint32_t die_linear)
{
    FlashSpan s;
    s.kind = kind;
    s.dieLinear = die_linear;
    s.addr = addr;
    s.start = result.start;
    s.done = result.done;
    s.status = result.status;
    s.retries = result.retries;
    ops_.push_back(s);
}

void
RequestTracer::exportChromeTrace(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();

    constexpr std::int64_t kPid = 1;
    constexpr std::int64_t kRequestTid = 1;
    constexpr std::int64_t kDieTidBase = 100;

    auto metadata = [&](std::int64_t tid, const char *what,
                        std::string_view value) {
        w.beginObject();
        w.field("name", what);
        w.field("ph", "M");
        w.field("pid", kPid);
        w.field("tid", tid);
        w.key("args").beginObject().field("name", value).endObject();
        w.endObject();
    };

    metadata(kRequestTid, "process_name", "emmcsim");
    metadata(kRequestTid, "thread_name", "emmc requests");

    std::uint32_t max_die = 0;
    for (const FlashSpan &s : ops_)
        max_die = std::max(max_die, s.dieLinear);
    if (!ops_.empty()) {
        for (std::uint32_t die = 0; die <= max_die; ++die) {
            metadata(kDieTidBase + die, "thread_name",
                     "die " + std::to_string(die));
        }
    }

    for (const RequestSpan &s : requests_) {
        if (s.waited) {
            // Queue wait as an async pair so Perfetto draws it as a
            // separate track row above the service span.
            w.beginObject();
            w.field("name", "queued");
            w.field("cat", "queue");
            w.field("ph", "b");
            w.field("id", s.id);
            w.field("ts", toMicros(s.arrival));
            w.field("pid", kPid);
            w.field("tid", kRequestTid);
            w.endObject();
            w.beginObject();
            w.field("name", "queued");
            w.field("cat", "queue");
            w.field("ph", "e");
            w.field("id", s.id);
            w.field("ts", toMicros(s.serviceStart));
            w.field("pid", kPid);
            w.field("tid", kRequestTid);
            w.endObject();
        }
        w.beginObject();
        w.field("name", s.write ? "write" : "read");
        w.field("cat", "request");
        w.field("ph", "X");
        w.field("ts", toMicros(s.serviceStart));
        w.field("dur", toMicros(s.finish - s.serviceStart));
        w.field("pid", kPid);
        w.field("tid", kRequestTid);
        w.key("args").beginObject();
        w.field("id", s.id);
        w.field("lba_sector", s.lbaSector.value());
        w.field("size_bytes", s.sizeBytes.value());
        w.field("waited", s.waited);
        w.field("packed", s.packed);
        w.field("status", requestStatusName(s.status));
        w.endObject();
        w.endObject();

        // Phase sub-spans from the attribution ledger. Queue-side
        // phases tile [arrival, serviceStart] as async pairs (drawn
        // on the same track row as "queued"); the service chain tiles
        // [serviceStart, finish] as nested "X" events. Conservation
        // makes both tilings exact; zero-length phases are skipped.
        constexpr emmc::Phase kQueuePhases[] = {emmc::Phase::QueueWait,
                                                emmc::Phase::MountStall,
                                                emmc::Phase::GcWait};
        sim::Time cursor = s.arrival;
        for (emmc::Phase p : kQueuePhases) {
            const sim::Time dur = s.phases.get(p);
            if (dur <= 0)
                continue;
            for (const char *ph : {"b", "e"}) {
                w.beginObject();
                w.field("name", emmc::phaseName(p));
                w.field("cat", "phase");
                w.field("ph", ph);
                w.field("id", s.id);
                w.field("ts", toMicros(ph[0] == 'b' ? cursor
                                                    : cursor + dur));
                w.field("pid", kPid);
                w.field("tid", kRequestTid);
                w.endObject();
            }
            cursor += dur;
        }
        cursor = s.serviceStart;
        for (emmc::Phase p : emmc::serviceChainOrder(s.write)) {
            const sim::Time dur = s.phases.get(p);
            if (dur <= 0)
                continue;
            w.beginObject();
            w.field("name", emmc::phaseName(p));
            w.field("cat", "phase");
            w.field("ph", "X");
            w.field("ts", toMicros(cursor));
            w.field("dur", toMicros(dur));
            w.field("pid", kPid);
            w.field("tid", kRequestTid);
            w.key("args").beginObject();
            w.field("id", s.id);
            w.endObject();
            w.endObject();
            cursor += dur;
        }
    }

    for (const FlashSpan &s : ops_) {
        w.beginObject();
        w.field("name", opName(s.kind));
        w.field("cat", "flash");
        w.field("ph", "X");
        w.field("ts", toMicros(s.start));
        w.field("dur", toMicros(s.done - s.start));
        w.field("pid", kPid);
        w.field("tid", kDieTidBase + s.dieLinear);
        w.key("args").beginObject();
        w.field("channel", std::uint64_t{s.addr.channel});
        w.field("chip", std::uint64_t{s.addr.chip});
        w.field("die", std::uint64_t{s.addr.die});
        w.field("plane", std::uint64_t{s.addr.plane});
        w.field("pool", std::uint64_t{s.addr.pool});
        w.field("block", std::uint64_t{s.addr.block});
        w.field("page", std::uint64_t{s.addr.page});
        w.field("status", opStatusName(s.status));
        if (s.retries)
            w.field("retries", std::uint64_t{s.retries});
        w.endObject();
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
    EMMCSIM_ASSERT(w.done(), "chrome trace export left JSON unbalanced");
}

} // namespace emmcsim::obs
