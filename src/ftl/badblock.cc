#include "ftl/badblock.hh"

#include "sim/logging.hh"

namespace emmcsim::ftl {

BadBlockManager::BadBlockManager(std::uint32_t planes,
                                 std::uint32_t pools,
                                 const BbmConfig &cfg)
    : cfg_(cfg), pools_(pools)
{
    EMMCSIM_ASSERT(planes > 0 && pools > 0,
                   "bad-block manager needs a non-empty array");
    EMMCSIM_ASSERT(cfg_.spareBlocksPerPlanePool > 0,
                   "spare budget must be at least one block");
    retired_.assign(static_cast<std::size_t>(planes) * pools, 0);
}

void
BadBlockManager::recordRetirement(std::uint32_t plane_linear,
                                  std::uint32_t pool,
                                  units::BlockId block, RetireCause cause)
{
    const std::size_t idx =
        static_cast<std::size_t>(plane_linear) * pools_ + pool;
    EMMCSIM_ASSERT(idx < retired_.size(),
                   "retirement outside the managed array");
    ++retired_[idx];
    table_.push_back(
        BadBlockEntry{plane_linear, pool, block.value(), cause});
    if (cause == RetireCause::ProgramFail)
        ++stats_.retiredProgram;
    else
        ++stats_.retiredErase;

    if (retired_[idx] >= cfg_.spareBlocksPerPlanePool &&
        readOnlyCause_ == ReadOnlyCause::None) {
        readOnlyCause_ = ReadOnlyCause::SpareExhaustion;
        sim::warn("bbm", "plane " + std::to_string(plane_linear) +
                             " pool " + std::to_string(pool) +
                             " exhausted its spare blocks; device is "
                             "now read-only");
    }
}

std::uint32_t
BadBlockManager::retiredCount(std::uint32_t plane_linear,
                              std::uint32_t pool) const
{
    const std::size_t idx =
        static_cast<std::size_t>(plane_linear) * pools_ + pool;
    EMMCSIM_ASSERT(idx < retired_.size(),
                   "retiredCount outside the managed array");
    return retired_[idx];
}

void
BadBlockManager::declareSpaceExhausted()
{
    if (readOnlyCause_ != ReadOnlyCause::None)
        return;
    readOnlyCause_ = ReadOnlyCause::SpaceExhaustion;
    sim::warn("bbm", "device out of reclaimable space; device is now "
                     "read-only");
}

template <typename Self, typename IO>
void
BadBlockManager::fields(Self &self, IO &io)
{
    io.fixedVec(self.retired_);
    io.podVec(self.table_);
    io.pod(self.stats_);
    io.pod(self.readOnlyCause_);
}

void
BadBlockManager::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
BadBlockManager::load(core::BinReader &r)
{
    fields(*this, r);
    if (readOnlyCause_ > ReadOnlyCause::SpaceExhaustion)
        r.fail();
}

} // namespace emmcsim::ftl
