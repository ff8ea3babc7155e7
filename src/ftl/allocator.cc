#include "ftl/allocator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emmcsim::ftl {

PlaneAllocator::PlaneAllocator(AllocPolicy policy,
                               std::uint32_t plane_count,
                               std::uint32_t pool_count,
                               std::uint32_t die_count)
    : policy_(policy),
      planeCount_(plane_count),
      dieCount_(die_count == 0 ? plane_count : die_count)
{
    EMMCSIM_ASSERT(plane_count > 0, "allocator needs at least one plane");
    EMMCSIM_ASSERT(pool_count > 0, "allocator needs at least one pool");
    EMMCSIM_ASSERT(dieCount_ > 0 && plane_count % dieCount_ == 0,
                   "planes must divide evenly across dies");
    planesPerDie_ = plane_count / dieCount_;
    cursor_.assign(pool_count, 0);
}

std::uint32_t
PlaneAllocator::nextPlane(std::uint32_t pool, flash::Lpn lpn)
{
    EMMCSIM_ASSERT(pool < cursor_.size(), "pool out of range");
    switch (policy_) {
      case AllocPolicy::RoundRobin: {
        // Die-interleaved order: visit every die once before coming
        // back to another plane of the same die, so the array phases
        // of consecutive programs overlap.
        std::uint32_t k = cursor_[pool];
        cursor_[pool] = (k + 1) % planeCount_;
        std::uint32_t die = k % dieCount_;
        std::uint32_t plane_in_die = (k / dieCount_) % planesPerDie_;
        return die * planesPerDie_ + plane_in_die;
      }
      case AllocPolicy::StaticLpn:
        return static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(lpn.value()) % planeCount_);
    }
    sim::panic("unknown allocation policy");
}

void
PlaneAllocator::resetCursors()
{
    std::fill(cursor_.begin(), cursor_.end(), 0u);
}

} // namespace emmcsim::ftl
