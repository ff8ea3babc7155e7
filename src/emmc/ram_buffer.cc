#include "emmc/ram_buffer.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace emmcsim::emmc {

RamBuffer::RamBuffer(const BufferConfig &cfg) : cfg_(cfg)
{
    if (cfg_.enabled)
        EMMCSIM_ASSERT(cfg_.capacityUnits > 0, "zero-capacity buffer");
}

void
RamBuffer::touch(flash::Lpn lpn, bool dirty, std::vector<flash::Lpn> &out)
{
    auto it = map_.find(lpn);
    if (it != map_.end()) {
        it->second->dirty = it->second->dirty || dirty;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{lpn, dirty});
    map_[lpn] = lru_.begin();
    while (map_.size() > cfg_.capacityUnits) {
        Entry victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim.lpn);
        if (victim.dirty) {
            out.push_back(victim.lpn);
            ++stats_.evictedDirty;
        }
    }
}

void
RamBuffer::runsFromUnits(std::vector<flash::Lpn> &units,
                         std::vector<UnitRun> &runs)
{
    if (units.empty())
        return;
    std::sort(units.begin(), units.end());
    UnitRun cur{units.front(), 1};
    for (std::size_t i = 1; i < units.size(); ++i) {
        if (units[i] == cur.first + cur.count) {
            ++cur.count;
        } else {
            runs.push_back(cur);
            cur = UnitRun{units[i], 1};
        }
    }
    runs.push_back(cur);
}

void
RamBuffer::write(flash::Lpn first, std::uint32_t n,
                 std::vector<UnitRun> &evicted)
{
    EMMCSIM_ASSERT(cfg_.enabled, "write to disabled buffer");
    std::vector<flash::Lpn> out;
    for (std::uint32_t i = 0; i < n; ++i) {
        ++stats_.writeLookups;
        if (map_.count(first + i))
            ++stats_.writeHits;
        touch(first + i, true, out);
    }
    runsFromUnits(out, evicted);
}

std::uint32_t
RamBuffer::read(flash::Lpn first, std::uint32_t n,
                std::vector<UnitRun> &misses,
                std::vector<UnitRun> &evicted)
{
    EMMCSIM_ASSERT(cfg_.enabled, "read from disabled buffer");
    std::vector<flash::Lpn> miss_units;
    std::uint32_t hits = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        ++stats_.readLookups;
        auto it = map_.find(first + i);
        if (it != map_.end()) {
            ++stats_.readHits;
            ++hits;
            lru_.splice(lru_.begin(), lru_, it->second);
        } else {
            miss_units.push_back(first + i);
        }
    }
    runsFromUnits(miss_units, misses);
    if (cfg_.readAllocate) {
        std::vector<flash::Lpn> out;
        for (flash::Lpn lpn : miss_units)
            touch(lpn, false, out);
        runsFromUnits(out, evicted);
    }
    return hits;
}

void
RamBuffer::flushAll(std::vector<UnitRun> &evicted)
{
    std::vector<flash::Lpn> dirty;
    for (const Entry &e : lru_) {
        if (e.dirty)
            dirty.push_back(e.lpn);
    }
    lru_.clear();
    map_.clear();
    runsFromUnits(dirty, evicted);
}

std::uint64_t
RamBuffer::discardAll()
{
    std::uint64_t lost = 0;
    for (const Entry &e : lru_) {
        if (e.dirty)
            ++lost;
    }
    lru_.clear();
    map_.clear();
    return lost;
}

template <typename Self, typename IO>
void
RamBuffer::fields(Self &self, IO &io)
{
    io.pod(self.stats_);
    io.each(self.lru_, [&io](auto &e) {
        io.pod(e.lpn);
        io.pod(e.dirty);
    });
}

void
RamBuffer::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
RamBuffer::load(core::BinReader &r)
{
    fields(*this, r);
    if (lru_.size() > cfg_.capacityUnits)
        r.fail();
    map_.clear();
    for (auto it = lru_.begin(); it != lru_.end(); ++it)
        map_[it->lpn] = it;
}

} // namespace emmcsim::emmc
