/**
 * @file
 * Plane allocation policy: which plane receives the next page program.
 *
 * SSDsim distinguishes static allocation (the LPN fixes the plane, so
 * sequential logical pages stripe deterministically) from dynamic
 * allocation (the controller picks the next plane round-robin for load
 * balance). Both are provided; the paper's case study uses the dynamic
 * policy, which is what lets a large request exploit all 8 planes
 * regardless of its starting address.
 */

#ifndef EMMCSIM_FTL_ALLOCATOR_HH
#define EMMCSIM_FTL_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "flash/pool.hh"

namespace emmcsim::ftl {

/** Allocation strategies for write placement. */
enum class AllocPolicy
{
    RoundRobin, ///< dynamic: next plane per pool, skipping full planes
    StaticLpn,  ///< static: plane = lpn modulo plane count
};

/** Chooses the target plane for each page program. */
class PlaneAllocator
{
  public:
    /**
     * @param policy      Placement policy.
     * @param plane_count Number of planes in the array.
     * @param pool_count  Number of page-size pools per plane.
     * @param die_count   Number of dies; round-robin visits each die
     *        once before reusing one, so consecutive page programs of
     *        a large request overlap even without multi-plane
     *        commands. Defaults to plane_count (plain round-robin).
     */
    PlaneAllocator(AllocPolicy policy, std::uint32_t plane_count,
                   std::uint32_t pool_count, std::uint32_t die_count = 0);

    /**
     * Pick the plane for the next program into @p pool.
     *
     * @param pool Pool (page-size class) being written.
     * @param lpn  First LPN of the page (used by StaticLpn).
     */
    std::uint32_t nextPlane(std::uint32_t pool, flash::Lpn lpn);

    AllocPolicy policy() const { return policy_; }
    std::uint32_t planeCount() const { return planeCount_; }

    /**
     * Forget the round-robin cursors. Placement cursors are volatile
     * controller RAM; power-up recovery restarts them from zero.
     */
    void resetCursors();

    /** @name Snapshot image (core/binio.hh). @{ */
    void save(core::BinWriter &w) const { fields(*this, w); }
    void load(core::BinReader &r) { fields(*this, r); }
    /** @} */

  private:
    /** The snapshot layout, walked by both save() and load(). */
    template <typename Self, typename IO>
    static void
    fields(Self &self, IO &io)
    {
        io.fixedVec(self.cursor_);
    }

    AllocPolicy policy_;
    std::uint32_t planeCount_;
    std::uint32_t dieCount_;
    std::uint32_t planesPerDie_;
    std::vector<std::uint32_t> cursor_; ///< per-pool round-robin cursor
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_ALLOCATOR_HH
