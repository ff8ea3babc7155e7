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

fault::ReadFault
FlashArray::evalReadFault(const PageAddr &addr)
{
    if (fault_ == nullptr || !fault_->enabled())
        return {};
    const BlockPool &bp =
        planes_.at(planeLinear(geom_, addr)).pool(addr.pool);
    return fault_->onRead(bp.eraseCount(BlockId{addr.block}),
                          bp.blockAge(BlockId{addr.block}));
}

OpResult
FlashArray::read(const PageAddr &addr, sim::Time earliest,
                 units::Bytes transfer_bytes)
{
    const auto &pt = timing_.pools.at(addr.pool);
    const std::uint32_t page_bytes = geom_.pools.at(addr.pool).pageBytes;
    std::uint64_t bytes = transfer_bytes.value() == 0
                              ? page_bytes
                              : std::min<std::uint64_t>(
                                    transfer_bytes.value(), page_bytes);

    // Each retry level re-senses the page with shifted read voltages,
    // extending the array occupancy; the data crosses the channel once
    // (either the finally-corrected page or the failed read-out).
    const fault::ReadFault rf = evalReadFault(addr);
    sim::Time sense = pt.readLatency;
    if (rf.retries > 0)
        sense += static_cast<sim::Time>(rf.retries) *
                 fault_->config().readRetryLatency;

    // Array senses the page first, then the channel moves the data out.
    sim::Time a_start = reserveArray(arrayIndex(addr), earliest, sense);
    sim::Time a_done = a_start + sense;

    sim::Time xfer = timing_.pageCmdOverhead + timing_.transferTime(bytes);
    sim::Time x_start = reserveChannel(addr.channel, a_done, xfer);

    auto &st = stats_.at(addr.pool);
    ++st.reads;
    st.bytesRead += bytes;

    OpResult res{a_start, x_start + xfer};
    res.retries = rf.retries;
    res.busTime = xfer;
    res.cellTime = sense;
    res.retryTime = sense - pt.readLatency;
    if (rf.uncorrectable)
        res.status = OpStatus::Uncorrectable;
    else if (rf.retries > 0)
        res.status = OpStatus::Corrected;
    return notifyOp(OpKind::Read, addr, res);
}

OpResult
FlashArray::program(const PageAddr &addr, sim::Time earliest)
{
    const auto &pt = timing_.pools.at(addr.pool);
    const std::uint32_t page_bytes = geom_.pools.at(addr.pool).pageBytes;

    // Data crosses the channel first, then the array programs it.
    sim::Time xfer =
        timing_.pageCmdOverhead + timing_.transferTime(page_bytes);
    sim::Time x_start = reserveChannel(addr.channel, earliest, xfer);
    sim::Time x_done = x_start + xfer;

    sim::Time a_start =
        reserveArray(arrayIndex(addr), x_done, pt.programLatency);

    auto &st = stats_.at(addr.pool);
    ++st.programs;
    st.bytesProgrammed += page_bytes;

    OpResult res{x_start, a_start + pt.programLatency};
    res.busTime = xfer;
    res.cellTime = pt.programLatency;
    if (fault_ != nullptr && fault_->enabled() &&
        fault_->programFails(poolAt(addr).eraseCount(BlockId{addr.block})))
        res.status = OpStatus::ProgramFail;
    return notifyOp(OpKind::Program, addr, res);
}

OpResult
FlashArray::erase(const PageAddr &addr, sim::Time earliest)
{
    // Only the erase command crosses the bus; the array then erases.
    sim::Time x_start = reserveChannel(addr.channel, earliest,
                                       timing_.pageCmdOverhead);
    sim::Time x_done = x_start + timing_.pageCmdOverhead;
    sim::Time a_start =
        reserveArray(arrayIndex(addr), x_done, timing_.eraseLatency);

    ++stats_.at(addr.pool).erases;

    OpResult res{x_start, a_start + timing_.eraseLatency};
    res.busTime = timing_.pageCmdOverhead;
    res.cellTime = timing_.eraseLatency;
    if (fault_ != nullptr && fault_->enabled() &&
        fault_->eraseFails(poolAt(addr).eraseCount(BlockId{addr.block})))
        res.status = OpStatus::EraseFail;
    return notifyOp(OpKind::Erase, addr, res);
}

OpResult
FlashArray::copybackRead(const PageAddr &addr, sim::Time earliest)
{
    const auto &pt = timing_.pools.at(addr.pool);

    // The retry ladder applies to copyback sensing just as it does to
    // host reads; GC relocating data out of a worn block pays for it.
    const fault::ReadFault rf = evalReadFault(addr);
    sim::Time sense = pt.readLatency;
    if (rf.retries > 0)
        sense += static_cast<sim::Time>(rf.retries) *
                 fault_->config().readRetryLatency;

    sim::Time x_start = reserveChannel(addr.channel, earliest,
                                       timing_.pageCmdOverhead);
    sim::Time x_done = x_start + timing_.pageCmdOverhead;
    sim::Time a_start = reserveArray(arrayIndex(addr), x_done, sense);

    ++stats_.at(addr.pool).copybackReads;
    OpResult res{x_start, a_start + sense};
    res.retries = rf.retries;
    res.busTime = timing_.pageCmdOverhead;
    res.cellTime = sense;
    res.retryTime = sense - pt.readLatency;
    if (rf.uncorrectable)
        res.status = OpStatus::Uncorrectable;
    else if (rf.retries > 0)
        res.status = OpStatus::Corrected;
    return notifyOp(OpKind::CopybackRead, addr, res);
}

OpResult
FlashArray::copybackProgram(const PageAddr &addr, sim::Time earliest)
{
    const auto &pt = timing_.pools.at(addr.pool);
    sim::Time x_start = reserveChannel(addr.channel, earliest,
                                       timing_.pageCmdOverhead);
    sim::Time x_done = x_start + timing_.pageCmdOverhead;
    sim::Time a_start =
        reserveArray(arrayIndex(addr), x_done, pt.programLatency);

    ++stats_.at(addr.pool).copybackPrograms;
    OpResult res{x_start, a_start + pt.programLatency};
    res.busTime = timing_.pageCmdOverhead;
    res.cellTime = pt.programLatency;
    if (fault_ != nullptr && fault_->enabled() &&
        fault_->programFails(poolAt(addr).eraseCount(BlockId{addr.block})))
        res.status = OpStatus::ProgramFail;
    return notifyOp(OpKind::CopybackProgram, addr, res);
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
