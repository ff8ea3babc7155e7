#include "emmc/config.hh"

namespace emmcsim::emmc {

namespace {

/** The hierarchy shared by every Table V device. */
flash::Geometry
baseGeometry()
{
    flash::Geometry g;
    g.channels = 2;
    g.chipsPerChannel = 1;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    g.pagesPerBlock = 1024;
    return g;
}

} // namespace

EmmcConfig
make4psConfig()
{
    EmmcConfig c;
    c.name = "4PS";
    c.geometry = baseGeometry();
    c.geometry.pools = {flash::PoolConfig{4096, 1024}};
    c.timing.pools = {flash::Timing::page4k()};
    return c;
}

EmmcConfig
make8psConfig()
{
    EmmcConfig c;
    c.name = "8PS";
    c.geometry = baseGeometry();
    c.geometry.pools = {flash::PoolConfig{8192, 512}};
    c.timing.pools = {flash::Timing::page8k()};
    return c;
}

EmmcConfig
makeHpsConfig()
{
    EmmcConfig c;
    c.name = "HPS";
    c.geometry = baseGeometry();
    c.geometry.pools = {flash::PoolConfig{4096, 512},
                        flash::PoolConfig{8192, 256}};
    c.timing.pools = {flash::Timing::page4k(), flash::Timing::page8k()};
    return c;
}

EmmcConfig
makeHpsSlcConfig()
{
    EmmcConfig c = makeHpsConfig();
    c.name = "HSLC";
    // Same blocks as HPS, but the 4KB pool runs in SLC mode: half the
    // pages per block, SLC latencies.
    c.geometry.pools[kHps4kPool].pagesPerBlockOverride =
        c.geometry.pagesPerBlock / 2;
    c.timing.pools[kHps4kPool] = flash::Timing::page4kSlcMode();
    return c;
}

} // namespace emmcsim::emmc
