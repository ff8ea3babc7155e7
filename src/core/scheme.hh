/**
 * @file
 * Scheme factory: builds the three Table V devices (4PS, 8PS, HPS).
 */

#ifndef EMMCSIM_CORE_SCHEME_HH
#define EMMCSIM_CORE_SCHEME_HH

#include <memory>
#include <string>

#include "emmc/device.hh"
#include "sim/simulator.hh"

namespace emmcsim::core {

/**
 * The case-study eMMC schemes. PS4/PS8/HPS are the paper's Table V
 * devices; HSLC is the Implication 5 extension (HPS with an SLC-mode
 * 4KB pool).
 */
enum class SchemeKind { PS4, PS8, HPS, HSLC };

/** The paper's schemes in presentation order (4PS, 8PS, HPS). */
const std::vector<SchemeKind> &allSchemes();

/** The paper's schemes plus the HSLC extension. */
const std::vector<SchemeKind> &extendedSchemes();

/** "4PS" / "8PS" / "HPS". */
std::string schemeName(SchemeKind kind);

/** Table V configuration of @p kind. */
emmc::EmmcConfig schemeConfig(SchemeKind kind);

/**
 * Build a device of the given scheme on @p simulator.
 *
 * @param kind  Scheme to build.
 * @param cfg   Configuration (usually schemeConfig(kind), possibly
 *        with experiment toggles applied). Its pool page sizes must
 *        equal schemeConfig(kind)'s (asserted): the pool layout alone
 *        decides the write split.
 */
std::unique_ptr<emmc::EmmcDevice>
makeDevice(sim::Simulator &simulator, SchemeKind kind,
           const emmc::EmmcConfig &cfg);

/** Convenience: makeDevice with the unmodified Table V config. */
std::unique_ptr<emmc::EmmcDevice>
makeDevice(sim::Simulator &simulator, SchemeKind kind);

} // namespace emmcsim::core

#endif // EMMCSIM_CORE_SCHEME_HH
