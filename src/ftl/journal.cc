#include "ftl/journal.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emmcsim::ftl {

MetaJournal::MetaJournal(PageMap &map, const JournalConfig &cfg)
    : map_(map), cfg_(cfg)
{
    EMMCSIM_ASSERT(cfg_.recordsPerPage >= 1,
                   "journal page must hold at least one record");
    EMMCSIM_ASSERT(cfg_.checkpointEveryRecords >= cfg_.recordsPerPage,
                   "checkpoint interval below one journal page");
    // A device ships with a clean checkpoint of the (empty) table.
    checkpointPages_ =
        (map_.logicalUnits() + cfg_.recordsPerPage - 1) /
        cfg_.recordsPerPage;
}

std::uint64_t
MetaJournal::append()
{
    ++seq_;
    if (++openRecords_ >= cfg_.recordsPerPage) {
        // Page buffer full: it reaches flash piggybacked on the data
        // stream (OOB), making everything up to here durable.
        durableSeq_ = seq_;
        openRecords_ = 0;
        ++stats_.pagesFlushed;
        ++pagesSinceCheckpoint_;
    }
    if (++recordsSinceCheckpoint_ >= cfg_.checkpointEveryRecords)
        checkpoint();
    return seq_;
}

std::uint64_t
MetaJournal::recordWrite(flash::Lpn lpn, const MapEntry &e)
{
    map_.set(lpn, e);
    ++stats_.writeRecords;
    return append();
}

std::uint64_t
MetaJournal::recordRelocation(flash::Lpn lpn, const MapEntry &e)
{
    map_.set(lpn, e);
    ++stats_.relocRecords;
    return append();
}

void
MetaJournal::recordErase(sim::Time done)
{
    ++stats_.eraseRecords;
    lastEraseDone_ = std::max(lastEraseDone_, done);
    append();
}

void
MetaJournal::recordRetire()
{
    ++stats_.retireRecords;
    append();
    // Spare/bad-block accounting must never roll back across a crash.
    flushBarrier();
}

void
MetaJournal::flushBarrier()
{
    if (openRecords_ > 0) {
        openRecords_ = 0;
        ++stats_.barrierFlushes;
        ++pagesSinceCheckpoint_;
    }
    durableSeq_ = seq_;
}

void
MetaJournal::checkpoint()
{
    flushBarrier();
    checkpointPages_ =
        (map_.logicalUnits() + cfg_.recordsPerPage - 1) /
        cfg_.recordsPerPage;
    pagesSinceCheckpoint_ = 0;
    recordsSinceCheckpoint_ = 0;
    ++stats_.checkpoints;
}

void
MetaJournal::resetMapForRecovery()
{
    map_.reset();
}

void
MetaJournal::installRecovered(flash::Lpn lpn, const MapEntry &e)
{
    map_.set(lpn, e);
}

template <typename Self, typename IO>
void
MetaJournal::fields(Self &self, IO &io)
{
    // Snapshot layout v1 holds two trim counters (stats slots 3 and 9)
    // and an empty trim table (length 0, mode byte 0); a load requires
    // them to be zero.
    const auto zero = std::uint64_t{0};
    auto &st = self.stats_;
    io.pod(st.writeRecords);
    io.pod(st.relocRecords);
    io.expect(zero);
    io.pod(st.eraseRecords);
    io.pod(st.retireRecords);
    io.pod(st.pagesFlushed);
    io.pod(st.barrierFlushes);
    io.pod(st.checkpoints);
    io.expect(zero);
    io.pod(self.seq_);
    io.pod(self.durableSeq_);
    io.pod(self.openRecords_);
    io.pod(self.recordsSinceCheckpoint_);
    io.pod(self.pagesSinceCheckpoint_);
    io.pod(self.checkpointPages_);
    io.pod(self.lastEraseDone_);
    io.expect(zero);
    io.expect(std::uint8_t{0});
}

void
MetaJournal::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
MetaJournal::load(core::BinReader &r)
{
    fields(*this, r);
}

} // namespace emmcsim::ftl
