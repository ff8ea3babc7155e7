#include "core/scheme.hh"

#include "sim/logging.hh"

namespace emmcsim::core {

const std::vector<SchemeKind> &
allSchemes()
{
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::PS4, SchemeKind::PS8, SchemeKind::HPS};
    return kinds;
}

const std::vector<SchemeKind> &
extendedSchemes()
{
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::PS4, SchemeKind::PS8, SchemeKind::HPS,
        SchemeKind::HSLC};
    return kinds;
}

std::string
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::PS4: return "4PS";
      case SchemeKind::PS8: return "8PS";
      case SchemeKind::HPS: return "HPS";
      case SchemeKind::HSLC: return "HSLC";
    }
    sim::panic("unknown scheme kind");
}

emmc::EmmcConfig
schemeConfig(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::PS4: return emmc::make4psConfig();
      case SchemeKind::PS8: return emmc::make8psConfig();
      case SchemeKind::HPS: return emmc::makeHpsConfig();
      case SchemeKind::HSLC: return emmc::makeHpsSlcConfig();
    }
    sim::panic("unknown scheme kind");
}

std::unique_ptr<emmc::EmmcDevice>
makeDevice(sim::Simulator &simulator, SchemeKind kind,
           const emmc::EmmcConfig &cfg)
{
    // The pool layout decides the write split, so a config built for
    // another scheme would silently simulate that scheme instead.
    const auto &want = schemeConfig(kind).geometry.pools;
    const auto &have = cfg.geometry.pools;
    bool same = want.size() == have.size();
    for (std::size_t k = 0; same && k < want.size(); ++k)
        same = want[k].pageBytes == have[k].pageBytes;
    EMMCSIM_ASSERT(same, "makeDevice: config pool page sizes do not "
                         "match the scheme's");
    return std::make_unique<emmc::EmmcDevice>(simulator, cfg);
}

std::unique_ptr<emmc::EmmcDevice>
makeDevice(sim::Simulator &simulator, SchemeKind kind)
{
    return makeDevice(simulator, kind, schemeConfig(kind));
}

} // namespace emmcsim::core
