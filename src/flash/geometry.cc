#include "flash/geometry.hh"

#include "sim/logging.hh"

namespace emmcsim::flash {

std::uint32_t
PoolConfig::unitsPerPage() const
{
    return pageBytes / static_cast<std::uint32_t>(sim::kUnitBytes);
}

std::uint32_t
Geometry::planeCount() const
{
    return channels * chipsPerChannel * diesPerChip * planesPerDie;
}

std::uint32_t
Geometry::dieCount() const
{
    return channels * chipsPerChannel * diesPerChip;
}

units::Bytes
Geometry::capacityBytes() const
{
    units::Bytes per_plane{0};
    for (std::size_t i = 0; i < pools.size(); ++i) {
        per_plane += blockBytes(i) * pools[i].blocksPerPlane;
    }
    return per_plane * planeCount();
}

std::uint32_t
Geometry::poolPagesPerBlock(std::size_t pool) const
{
    const auto &p = pools.at(pool);
    return p.pagesPerBlockOverride != 0 ? p.pagesPerBlockOverride
                                        : pagesPerBlock;
}

std::uint64_t
Geometry::capacityUnits() const
{
    return units::bytesToUnits(capacityBytes());
}

units::Bytes
Geometry::blockBytes(std::size_t pool) const
{
    return units::Bytes{pools.at(pool).pageBytes} *
           poolPagesPerBlock(pool);
}

void
Geometry::validate() const
{
    if (channels == 0 || chipsPerChannel == 0 || diesPerChip == 0 ||
        planesPerDie == 0 || pagesPerBlock == 0) {
        sim::fatal("geometry: all hierarchy dimensions must be positive");
    }
    if (pools.empty())
        sim::fatal("geometry: at least one block pool is required");
    for (const auto &p : pools) {
        if (p.pageBytes == 0 || p.pageBytes % sim::kUnitBytes != 0)
            sim::fatal("geometry: page size must be a multiple of 4KB");
        if (p.blocksPerPlane == 0)
            sim::fatal("geometry: pool with zero blocks");
    }
}

std::uint32_t
planeLinear(const Geometry &g, const PageAddr &a)
{
    return ((a.channel * g.chipsPerChannel + a.chip) * g.diesPerChip +
            a.die) * g.planesPerDie + a.plane;
}

std::uint32_t
dieLinear(const Geometry &g, const PageAddr &a)
{
    return (a.channel * g.chipsPerChannel + a.chip) * g.diesPerChip + a.die;
}

PageAddr
addrFromPlaneLinear(const Geometry &g, std::uint32_t plane_linear)
{
    EMMCSIM_ASSERT(plane_linear < g.planeCount(),
                   "plane index out of range");
    PageAddr a;
    a.plane = plane_linear % g.planesPerDie;
    std::uint32_t rest = plane_linear / g.planesPerDie;
    a.die = rest % g.diesPerChip;
    rest /= g.diesPerChip;
    a.chip = rest % g.chipsPerChannel;
    a.channel = rest / g.chipsPerChannel;
    return a;
}

PageAddr
pageAddr(const Geometry &g, std::uint32_t plane_linear, std::uint32_t pool,
         units::PageNo ppn)
{
    PageAddr a = addrFromPlaneLinear(g, plane_linear);
    a.pool = pool;
    const std::uint32_t ppb = g.poolPagesPerBlock(pool);
    a.block = units::pageToBlock(ppn, ppb).value();
    a.page = units::pageIndexInBlock(ppn, ppb);
    return a;
}

} // namespace emmcsim::flash
