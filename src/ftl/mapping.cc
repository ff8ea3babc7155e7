#include "ftl/mapping.hh"

#include "sim/logging.hh"

namespace emmcsim::ftl {

namespace {

/** Slot encoding of @p e: planeLinear + 1, so unmapped is all-zero. */
MapEntry
encode(MapEntry e)
{
    ++e.planeLinear;
    return e;
}

MapEntry
decode(MapEntry e)
{
    --e.planeLinear;
    return e;
}

} // namespace

PageMap::PageMap(std::uint64_t logical_units) : entries_(logical_units) {}

std::size_t
PageMap::slot(flash::Lpn lpn) const
{
    EMMCSIM_ASSERT(lpn.value() >= 0 &&
                       static_cast<std::uint64_t>(lpn.value()) <
                           entries_.size(),
                   "lpn out of logical range");
    return static_cast<std::size_t>(lpn.value());
}

bool
PageMap::mapped(flash::Lpn lpn) const
{
    return entries_[slot(lpn)].planeLinear != 0;
}

MapEntry
PageMap::lookup(flash::Lpn lpn) const
{
    return decode(entries_[slot(lpn)]);
}

void
PageMap::set(flash::Lpn lpn, const MapEntry &e)
{
    const std::size_t i = slot(lpn);
    EMMCSIM_ASSERT(e.mapped(), "setting unmapped entry");
    if (entries_[i].planeLinear == 0)
        ++mappedCount_;
    entries_[i] = encode(e);
}

void
PageMap::reset()
{
    entries_.clear();
    mappedCount_ = 0;
}

template <typename Self, typename IO>
void
PageMap::fields(Self &self, IO &io)
{
    // Snapshot layout v1: the dense table with planeLinear = -1 for
    // unmapped entries.
    io.podTable(self.entries_, decode, encode);
    io.pod(self.mappedCount_);
}

void
PageMap::save(core::BinWriter &w) const
{
    fields(*this, w);
}

void
PageMap::load(core::BinReader &r)
{
    // The table read stores only mapped entries.
    entries_.clear();
    fields(*this, r);
}

} // namespace emmcsim::ftl
