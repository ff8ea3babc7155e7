#include "flash/array.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emmcsim::flash {

FlashArray::FlashArray(const Geometry &g, const Timing &t, bool multiplane)
    : geom_(g), timing_(t), multiplane_(multiplane)
{
    geom_.validate();
    if (timing_.pools.size() != geom_.pools.size())
        sim::fatal("flash timing pools do not match geometry pools");

    planes_.reserve(geom_.planeCount());
    for (std::uint32_t p = 0; p < geom_.planeCount(); ++p)
        planes_.emplace_back(geom_);

    channelFree_.assign(geom_.channels, 0);
    arrayFree_.assign(multiplane_ ? geom_.planeCount() : geom_.dieCount(),
                      0);
    stats_.assign(geom_.pools.size(), ArrayStats{});
}

BlockPool &
FlashArray::poolAt(const PageAddr &addr)
{
    return planes_.at(planeLinear(geom_, addr)).pool(addr.pool);
}

std::size_t
FlashArray::arrayIndex(const PageAddr &addr) const
{
    return multiplane_ ? planeLinear(geom_, addr) : dieLinear(geom_, addr);
}

sim::Time
FlashArray::reserveChannel(std::uint32_t ch, sim::Time t, sim::Time dur)
{
    EMMCSIM_ASSERT(ch < channelFree_.size(), "channel out of range");
    sim::Time start = std::max(t, channelFree_[ch]);
    channelFree_[ch] = start + dur;
    return start;
}

sim::Time
FlashArray::reserveArray(std::size_t idx, sim::Time t, sim::Time dur)
{
    EMMCSIM_ASSERT(idx < arrayFree_.size(), "array unit out of range");
    sim::Time start = std::max(t, arrayFree_[idx]);
    arrayFree_[idx] = start + dur;
    return start;
}

OpResult
FlashArray::issue(OpKind kind, const PageAddr &addr, sim::Time earliest,
                  units::Bytes transfer_bytes)
{
    const PageTiming &pt = timing_.pools.at(addr.pool);
    const bool sense = kind == OpKind::Read || kind == OpKind::CopybackRead;
    const sim::Time base_cell = kind == OpKind::Erase ? timing_.eraseLatency
                                : sense               ? pt.readLatency
                                                      : pt.programLatency;

    // Every op sends a command; only host reads and programs also move
    // page data over the channel, and a host read may move less than
    // the full page.
    OpResult res;
    res.busTime = timing_.pageCmdOverhead;
    res.cellTime = base_cell;
    std::uint64_t bytes = 0;
    if (kind == OpKind::Read || kind == OpKind::Program) {
        bytes = geom_.pools.at(addr.pool).pageBytes;
        if (transfer_bytes.value() != 0)
            bytes = std::min<std::uint64_t>(bytes, transfer_bytes.value());
        res.busTime += timing_.transferTime(bytes);
    }
    if (fault_ != nullptr) {
        const BlockPool &bp = poolAt(addr);
        const BlockId block{addr.block};
        if (sense) {
            // Each retry level re-senses the page with shifted read
            // voltages, extending the array occupancy; the data or the
            // command crosses the channel once either way.
            const fault::ReadFault rf =
                fault_->onRead(bp.eraseCount(block), bp.blockAge(block));
            res.retries = rf.retries;
            res.cellTime += static_cast<sim::Time>(rf.retries) *
                            fault_->config().readRetryLatency;
            if (rf.uncorrectable)
                res.status = OpStatus::Uncorrectable;
            else if (rf.retries > 0)
                res.status = OpStatus::Corrected;
        } else if (kind == OpKind::Erase) {
            if (fault_->eraseFails(bp.eraseCount(block)))
                res.status = OpStatus::EraseFail;
        } else if (fault_->programFails(bp.eraseCount(block))) {
            res.status = OpStatus::ProgramFail;
        }
    }
    res.retryTime = res.cellTime - base_cell;

    // A host read senses first and then moves the data out; every
    // other op sends its command (and data) first, then the array works.
    const std::size_t unit = arrayIndex(addr);
    if (kind == OpKind::Read) {
        res.start = reserveArray(unit, earliest, res.cellTime);
        res.done = reserveChannel(addr.channel, res.start + res.cellTime,
                                  res.busTime) +
                   res.busTime;
    } else {
        res.start = reserveChannel(addr.channel, earliest, res.busTime);
        res.done = reserveArray(unit, res.start + res.busTime,
                                res.cellTime) +
                   res.cellTime;
    }

    ArrayStats &st = stats_.at(addr.pool);
    switch (kind) {
      case OpKind::Read:
        ++st.reads;
        st.bytesRead += bytes;
        break;
      case OpKind::Program:
        ++st.programs;
        st.bytesProgrammed += bytes;
        break;
      case OpKind::Erase:
        ++st.erases;
        break;
      case OpKind::CopybackRead:
        ++st.copybackReads;
        break;
      case OpKind::CopybackProgram:
        ++st.copybackPrograms;
        break;
    }

    if (opHook_)
        opHook_(kind, addr, res);
    return res;
}

sim::Time
FlashArray::channelFreeAt(std::uint32_t channel) const
{
    return channelFree_.at(channel);
}

sim::Time
FlashArray::arrayFreeAt(const PageAddr &addr) const
{
    return arrayFree_.at(arrayIndex(addr));
}

sim::Time
FlashArray::allIdleAt() const
{
    sim::Time t = 0;
    for (sim::Time c : channelFree_)
        t = std::max(t, c);
    for (sim::Time a : arrayFree_)
        t = std::max(t, a);
    return t;
}

ArrayStats
FlashArray::totalStats() const
{
    ArrayStats total;
    for (const auto &s : stats_) {
        total.reads += s.reads;
        total.programs += s.programs;
        total.erases += s.erases;
        total.copybackReads += s.copybackReads;
        total.copybackPrograms += s.copybackPrograms;
        total.bytesRead += s.bytesRead;
        total.bytesProgrammed += s.bytesProgrammed;
    }
    return total;
}

template <typename Self, typename IO>
void
FlashArray::fields(Self &self, IO &io)
{
    io.expect(static_cast<std::uint32_t>(self.planes_.size()));
    for (auto &p : self.planes_)
        for (std::size_t k = 0; k < p.poolCount(); ++k)
            io.nested(p.pool(k));
    io.fixedVec(self.channelFree_);
    io.fixedVec(self.arrayFree_);
    io.expect(static_cast<std::uint32_t>(self.stats_.size()));
    for (auto &s : self.stats_)
        io.pod(s);
}

void
FlashArray::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
FlashArray::load(core::BinReader &r)
{
    fields(*this, r);
}

} // namespace emmcsim::flash
