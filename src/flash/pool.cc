#include "flash/pool.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace emmcsim::flash {

BlockPool::BlockPool(const PoolConfig &cfg, std::uint32_t pages_per_block)
    : pageBytes_(cfg.pageBytes),
      unitsPerPage_(cfg.unitsPerPage()),
      blocks_(cfg.blocksPerPlane),
      pagesPerBlock_(pages_per_block)
{
    EMMCSIM_ASSERT(unitsPerPage_ >= 1 && unitsPerPage_ <= 8,
                   "units per page out of supported range");
    const std::uint64_t pages = pageCount();
    lpns_ = core::ZeroArray<std::int64_t>(pages * unitsPerPage_);
    valid_ = core::ZeroArray<std::uint8_t>(pages);
    pageSeq_ = core::ZeroArray<std::uint64_t>(pages);
    writePtr_.assign(blocks_, 0);
    blockValid_.assign(blocks_, 0);
    eraseCnt_.assign(blocks_, 0);
    lastWriteSeq_.assign(blocks_, 0);
    isFree_.assign(blocks_, true);
    suspect_.assign(blocks_, false);
    retired_.assign(blocks_, false);
    freeCount_ = blocks_;
}

std::uint64_t
BlockPool::pageCount() const
{
    return static_cast<std::uint64_t>(blocks_) * pagesPerBlock_;
}

bool
BlockPool::hasFreePage() const
{
    if (active_ >= 0 && writePtr_[active_] < pagesPerBlock_)
        return true;
    return freeCount_ > 0;
}

std::uint64_t
BlockPool::freePageCount() const
{
    std::uint64_t n = static_cast<std::uint64_t>(freeCount_) *
                      pagesPerBlock_;
    if (active_ >= 0)
        n += pagesPerBlock_ - writePtr_[active_];
    return n;
}

std::uint32_t
BlockPool::takeFreeBlock()
{
    EMMCSIM_ASSERT(freeCount_ > 0, "takeFreeBlock on empty free list");
    std::uint32_t best = 0;
    std::uint32_t best_erase = std::numeric_limits<std::uint32_t>::max();
    bool found = false;
    for (std::uint32_t b = 0; b < blocks_; ++b) {
        if (isFree_[b] && eraseCnt_[b] < best_erase) {
            best = b;
            best_erase = eraseCnt_[b];
            found = true;
        }
    }
    EMMCSIM_ASSERT(found, "free count disagrees with free flags");
    isFree_[best] = false;
    --freeCount_;
    return best;
}

Ppn
BlockPool::allocatePage()
{
    if (active_ < 0 || writePtr_[active_] >= pagesPerBlock_) {
        EMMCSIM_ASSERT(freeCount_ > 0,
                       "allocatePage with no free blocks; GC required");
        active_ = static_cast<std::int32_t>(takeFreeBlock());
    }
    std::uint32_t page = writePtr_[active_]++;
    ++programmed_;
    lastWriteSeq_[active_] = ++allocSeq_;
    return units::blockFirstPage(
               BlockId{static_cast<std::uint32_t>(active_)},
               pagesPerBlock_) +
           page;
}

void
BlockPool::setUnit(Ppn ppn, std::uint32_t slot, Lpn lpn)
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount() && slot < unitsPerPage_,
                   "setUnit out of range");
    EMMCSIM_ASSERT(lpn.value() >= 0, "setUnit with invalid lpn");
    std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    EMMCSIM_ASSERT(!(valid_[p] & bit), "setUnit on already-valid unit");
    lpns_[p * unitsPerPage_ + slot] = encodeLpn(lpn);
    valid_[p] |= bit;
    ++blockValid_[blockIndex(units::pageToBlock(ppn, pagesPerBlock_))];
    ++validUnits_;
}

void
BlockPool::invalidateUnit(Ppn ppn, std::uint32_t slot)
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount() && slot < unitsPerPage_,
                   "invalidateUnit out of range");
    std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    EMMCSIM_ASSERT(valid_[p] & bit, "invalidateUnit on stale unit");
    valid_[p] &= static_cast<std::uint8_t>(~bit);
    std::uint32_t b =
        blockIndex(units::pageToBlock(ppn, pagesPerBlock_));
    EMMCSIM_ASSERT(blockValid_[b] > 0, "block valid underflow");
    --blockValid_[b];
    --validUnits_;
}

Lpn
BlockPool::lpnAt(Ppn ppn, std::uint32_t slot) const
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount() && slot < unitsPerPage_,
                   "lpnAt out of range");
    return decodeLpn(lpns_[p * unitsPerPage_ + slot]);
}

bool
BlockPool::unitValid(Ppn ppn, std::uint32_t slot) const
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount() && slot < unitsPerPage_,
                   "unitValid out of range");
    return (valid_[p] >> slot) & 1u;
}

std::uint32_t
BlockPool::validUnitsInPage(Ppn ppn) const
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount(), "validUnitsInPage out of range");
    return static_cast<std::uint32_t>(__builtin_popcount(valid_[p]));
}

std::uint32_t
BlockPool::validUnitsInBlock(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "validUnitsInBlock out of range");
    return blockValid_[i];
}

std::uint32_t
BlockPool::writtenPages(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "writtenPages out of range");
    return writePtr_[i];
}

bool
BlockPool::blockFull(BlockId b) const
{
    return writtenPages(b) >= pagesPerBlock_;
}

std::uint32_t
BlockPool::eraseCount(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "eraseCount out of range");
    return eraseCnt_[i];
}

std::uint64_t
BlockPool::blockAge(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockAge out of range");
    return allocSeq_ - lastWriteSeq_[i];
}

void
BlockPool::eraseBlock(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "eraseBlock out of range");
    EMMCSIM_ASSERT(!isFree_[i], "eraseBlock on free block");
    EMMCSIM_ASSERT(!retired_[i], "eraseBlock on retired block");
    EMMCSIM_ASSERT(blockValid_[i] == 0,
                   "eraseBlock with live units; relocate first");
    EMMCSIM_ASSERT(active_ != static_cast<std::int32_t>(i),
                   "eraseBlock on the active block");
    clearBlockPages(b);
    writePtr_[i] = 0;
    ++eraseCnt_[i];
    ++totalErases_;
    isFree_[i] = true;
    ++freeCount_;
}

void
BlockPool::clearBlockPages(BlockId b)
{
    const std::size_t first =
        pageIndex(units::blockFirstPage(b, pagesPerBlock_));
    lpns_.zero(first * unitsPerPage_,
               std::size_t{pagesPerBlock_} * unitsPerPage_);
    valid_.zero(first, pagesPerBlock_);
    pageSeq_.zero(first, pagesPerBlock_);
}

void
BlockPool::markSuspect(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "markSuspect out of range");
    EMMCSIM_ASSERT(!retired_[i], "markSuspect on retired block");
    EMMCSIM_ASSERT(!isFree_[i], "markSuspect on free block");
    suspect_[i] = true;
}

bool
BlockPool::blockSuspect(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockSuspect out of range");
    return suspect_[i];
}

void
BlockPool::sealBlock(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "sealBlock out of range");
    EMMCSIM_ASSERT(!isFree_[i], "sealBlock on free block");
    EMMCSIM_ASSERT(!retired_[i], "sealBlock on retired block");
    writePtr_[i] = pagesPerBlock_;
    if (active_ == static_cast<std::int32_t>(i))
        active_ = -1;
}

void
BlockPool::retireBlock(BlockId b)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "retireBlock out of range");
    EMMCSIM_ASSERT(!isFree_[i], "retireBlock on free block");
    EMMCSIM_ASSERT(!retired_[i], "retireBlock on retired block");
    EMMCSIM_ASSERT(blockValid_[i] == 0,
                   "retireBlock with live units; relocate first");
    EMMCSIM_ASSERT(active_ != static_cast<std::int32_t>(i),
                   "retireBlock on the active block");
    clearBlockPages(b);
    // The write pointer stays at the end: a retired block is "full" of
    // nothing, keeping it out of every allocation and victim scan.
    writePtr_[i] = pagesPerBlock_;
    suspect_[i] = false;
    retired_[i] = true;
    ++retiredCount_;
}

bool
BlockPool::blockRetired(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockRetired out of range");
    return retired_[i];
}

std::uint32_t
BlockPool::eraseSpread() const
{
    auto [mn, mx] = std::minmax_element(eraseCnt_.begin(), eraseCnt_.end());
    return *mx - *mn;
}

bool
BlockPool::blockFree(BlockId b) const
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "blockFree out of range");
    return isFree_[i];
}

void
BlockPool::corruptUnitForTest(Ppn ppn, std::uint32_t slot, Lpn lpn,
                              bool valid)
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount() && slot < unitsPerPage_,
                   "corruptUnitForTest out of range");
    lpns_[p * unitsPerPage_ + slot] = encodeLpn(lpn);
    std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    if (valid)
        valid_[p] |= bit;
    else
        valid_[p] &= static_cast<std::uint8_t>(~bit);
}

void
BlockPool::corruptValidUnitsForTest(std::int64_t delta)
{
    validUnits_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(validUnits_) + delta);
}

void
BlockPool::corruptFreeCountForTest(std::int64_t delta)
{
    freeCount_ = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(freeCount_) + delta);
}

void
BlockPool::corruptRetiredForTest(BlockId b, bool retired)
{
    const std::uint32_t i = blockIndex(b);
    EMMCSIM_ASSERT(i < blocks_, "corruptRetiredForTest out of range");
    retired_[i] = retired;
}

void
BlockPool::stampPageSeq(Ppn ppn, std::uint64_t seq)
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount(), "stampPageSeq out of range");
    EMMCSIM_ASSERT(seq > 0, "page seq stamps start at 1");
    pageSeq_[p] = seq;
}

std::uint64_t
BlockPool::pageSeq(Ppn ppn) const
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount(), "pageSeq out of range");
    return pageSeq_[p];
}

void
BlockPool::tearPage(Ppn ppn)
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount(), "tearPage out of range");
    const std::uint32_t b =
        blockIndex(units::pageToBlock(ppn, pagesPerBlock_));
    for (std::uint32_t u = 0; u < unitsPerPage_; ++u) {
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << u);
        if (valid_[p] & bit) {
            EMMCSIM_ASSERT(blockValid_[b] > 0, "block valid underflow");
            --blockValid_[b];
            --validUnits_;
        }
    }
    lpns_.zero(p * unitsPerPage_, unitsPerPage_);
    valid_.zero(p, 1);
    pageSeq_.zero(p, 1);
    ++tornPages_;
}

void
BlockPool::beginRecoveryScan()
{
    valid_.clear();
    std::fill(blockValid_.begin(), blockValid_.end(), 0u);
    validUnits_ = 0;
}

void
BlockPool::revalidateUnit(Ppn ppn, std::uint32_t slot)
{
    const std::size_t p = pageIndex(ppn);
    EMMCSIM_ASSERT(p < pageCount() && slot < unitsPerPage_,
                   "revalidateUnit out of range");
    EMMCSIM_ASSERT(decodeLpn(lpns_[p * unitsPerPage_ + slot]) != kNoLpn,
                   "revalidateUnit on unwritten slot");
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << slot);
    EMMCSIM_ASSERT(!(valid_[p] & bit), "revalidateUnit on live unit");
    valid_[p] |= bit;
    ++blockValid_[blockIndex(units::pageToBlock(ppn, pagesPerBlock_))];
    ++validUnits_;
}

void
BlockPool::sealOpenBlocks()
{
    if (active_ >= 0)
        sealBlock(BlockId{static_cast<std::uint32_t>(active_)});
}

template <typename Self, typename IO>
void
BlockPool::fields(Self &self, IO &io)
{
    io.expect(self.pageBytes_);
    io.expect(self.unitsPerPage_);
    io.expect(self.blocks_);
    io.expect(self.pagesPerBlock_);
    // Snapshot layout v1 stores the dense tables: lpns as Lpn with
    // kNoLpn for unwritten slots.
    io.podTable(self.lpns_, decodeLpn, encodeLpn);
    io.podTable(self.valid_);
    io.sparseU64(self.pageSeq_.span());
    io.fixedVec(self.writePtr_);
    io.fixedVec(self.blockValid_);
    io.fixedVec(self.eraseCnt_);
    io.fixedVec(self.lastWriteSeq_);
    io.pod(self.allocSeq_);
    io.fixedVec(self.isFree_);
    io.fixedVec(self.suspect_);
    io.fixedVec(self.retired_);
    io.pod(self.freeCount_);
    io.pod(self.retiredCount_);
    io.pod(self.active_);
    io.pod(self.totalErases_);
    io.pod(self.programmed_);
    io.pod(self.validUnits_);
    io.pod(self.tornPages_);
}

void
BlockPool::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
BlockPool::load(core::BinReader &r)
{
    // The table reads store only non-zero entries.
    lpns_.clear();
    valid_.clear();
    pageSeq_.clear();
    fields(*this, r);
}

} // namespace emmcsim::flash
