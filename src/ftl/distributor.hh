/**
 * @file
 * WriteSplit: the request distributor's page split, read off the
 * geometry.
 *
 * The paper's request distributor "splits a request into multiple
 * pages", and Section V gives the rule: "when the size of a write
 * request is 20 KB, it will be divided into two 8-KB sub-requests and
 * one 4-KB sub-request." 4PS, 8PS and HPS are that one greedy rule on
 * different pool layouts:
 *
 *  - full pages go to the pool with the most units per page;
 *  - the remainder fills pages of the pool with the fewest units per
 *    page (ties go to the lowest pool index in both cases).
 *
 * So 4PS writes one 4KB page per unit, 8PS pads an odd tail into a
 * whole 8KB page (the space loss the paper charges it for), and HPS
 * serves unit pairs from the 8KB pool and an odd tail from the 4KB
 * pool, consuming exactly as much flash as a pure 4KB device.
 *
 * Each split piece is a PageGroup, one physical page program. Reads
 * normally follow the mapping, but the FTL also times reads of
 * never-written units (a replay on a brand-new device reads data the
 * original trace wrote before collection started) as if this same
 * split had laid them out.
 */

#ifndef EMMCSIM_FTL_DISTRIBUTOR_HH
#define EMMCSIM_FTL_DISTRIBUTOR_HH

#include <algorithm>
#include <cstdint>

#include "flash/geometry.hh"
#include "flash/pool.hh"

namespace emmcsim::ftl {

/** One physical page program: @p count units from @p first, in order. */
struct PageGroup
{
    std::uint32_t pool = 0;
    flash::Lpn first{0};
    std::uint32_t count = 0;
};

/** The greedy page-size split of a geometry's pools. */
struct WriteSplit
{
    /** Pool with the most units per page: takes the full pages. */
    std::uint32_t bulkPool = 0;
    std::uint32_t bulkUnits = 1;
    /**
     * Pool with the fewest units per page: takes the remainder. The
     * FTL's metadata pages live here too (power-up recovery timing).
     */
    std::uint32_t tailPool = 0;
    std::uint32_t tailUnits = 1;

    explicit WriteSplit(const flash::Geometry &g)
    {
        for (std::uint32_t k = 0; k < g.pools.size(); ++k) {
            const std::uint32_t upp = g.pools[k].unitsPerPage();
            if (k == 0 || upp > bulkUnits) {
                bulkPool = k;
                bulkUnits = upp;
            }
            if (k == 0 || upp < tailUnits) {
                tailPool = k;
                tailUnits = upp;
            }
        }
    }

    /** Call @p emit with each PageGroup of @p n units from @p first. */
    template <typename Emit>
    void
    split(flash::Lpn first, std::uint32_t n, Emit &&emit) const
    {
        const std::uint32_t full = n - n % bulkUnits;
        for (std::uint32_t i = 0; i < full; i += bulkUnits)
            emit(PageGroup{bulkPool, first + i, bulkUnits});
        for (std::uint32_t i = full; i < n; i += tailUnits)
            emit(PageGroup{tailPool, first + i,
                           std::min(tailUnits, n - i)});
    }
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_DISTRIBUTOR_HH
