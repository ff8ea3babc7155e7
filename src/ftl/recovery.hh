/**
 * @file
 * Power-up recovery report: what rebuilding the FTL after a sudden
 * power-off cost and found (DESIGN.md §13).
 *
 * The recovery procedure itself is Ftl::powerFailAndRecover (defined
 * in recovery.cc): tear the in-flight host program, rebuild the mapping
 * table in one pass over the out-of-band (lpn, seq) stamps of every
 * written page, seal the blocks that were open at the cut, and write a
 * fresh checkpoint. This header only carries the
 * result so emmc/ and obs/ can consume it without pulling in the FTL.
 */

#ifndef EMMCSIM_FTL_RECOVERY_HH
#define EMMCSIM_FTL_RECOVERY_HH

#include <cstdint>

#include "sim/types.hh"

namespace emmcsim::ftl {

/** Outcome and cost of one power-up recovery. */
struct RecoveryReport
{
    /** @name State found. @{ */
    std::uint64_t tornPages = 0;     ///< programs destroyed by the cut
    std::uint64_t scannedPages = 0;  ///< pages examined by the OOB scan
    std::uint64_t recoveredUnits = 0; ///< mapping winners installed
    std::uint64_t staleCopies = 0;   ///< older copies losing to a winner
    std::uint64_t reErasedBlocks = 0; ///< erases interrupted, re-run
    std::uint64_t sealedBlocks = 0;  ///< open blocks closed at power-up
    /** @} */

    /** @name Metadata read back (the realistic recovery protocol). @{ */
    std::uint64_t checkpointPagesRead = 0;
    std::uint64_t journalPagesRead = 0;
    std::uint64_t openBlockScanPages = 0; ///< OOB reads of open blocks
    /** @} */

    /** @name Cost model (flash time charged at power-up). @{ */
    sim::Time checkpointReadTime = 0;
    sim::Time journalReplayTime = 0;
    sim::Time scanTime = 0;
    sim::Time reEraseTime = 0;
    sim::Time checkpointWriteTime = 0; ///< fresh checkpoint at the end
    sim::Time totalTime = 0;
    /** @} */
};

} // namespace emmcsim::ftl

#endif // EMMCSIM_FTL_RECOVERY_HH
