#include "set_assoc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mixtlb::tlb
{

SetAssocTlb::SetAssocTlb(const std::string &name, stats::StatGroup *parent,
                         std::uint64_t entries, unsigned assoc,
                         PageSize size)
    : BaseTlb(name, parent), entries_(entries), assoc_(assoc), size_(size)
{
    fatal_if(assoc == 0 || entries == 0 || entries % assoc != 0,
             "TLB geometry does not divide evenly");
    numSets_ = entries / assoc;
    setMask_ = (numSets_ & (numSets_ - 1)) == 0 ? numSets_ - 1 : 0;
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.reserve(assoc_ + 1);
}

// mixcheck: hot
TlbLookup
SetAssocTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.waysRead = assoc_;
    std::uint64_t vpn = vpnOf(vaddr, size_);
    auto &set = sets_[setOf(vpn)];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return e.vpn == vpn && e.asid == asid_;
    });
    if (it != set.end()) {
        result.hit = true;
        result.xlate = it->xlate;
        result.entryDirty = it->dirty;
        std::rotate(set.begin(), it, it + 1); // move to MRU
    }
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
SetAssocTlb::fill(const FillInfo &fill)
{
    panic_if(fill.leaf.size != size_,
             "filling a %s translation into a %s-only TLB",
             pageSizeName(fill.leaf.size), pageSizeName(size_));
    std::uint64_t vpn = fill.leaf.vpn();
    auto &set = sets_[setOf(vpn)];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return e.vpn == vpn && e.asid == asid_;
    });
    if (it != set.end()) {
        it->xlate = fill.leaf;
        it->dirty = fill.leaf.dirty;
        std::rotate(set.begin(), it, it + 1);
        return;
    }
    set.insert(set.begin(), Entry{vpn, asid_, fill.leaf, fill.leaf.dirty});
    if (set.size() > assoc_)
        set.pop_back();
    ++fills_;
}

void
SetAssocTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    if (size == size_) {
        std::uint64_t vpn = vpnOf(vbase, size_);
        std::erase_if(sets_[setOf(vpn)], [&](const Entry &e) {
            return e.vpn == vpn && e.asid == asid;
        });
        return;
    }
    // Cross-size shootdown (superpage demotion/re-promotion): drop any
    // entry whose page overlaps [vbase, vbase + bytes). A superpage
    // window covers many of this size's VPNs — and therefore many
    // sets — so scan them all; this is never on the hot lookup path.
    const std::uint64_t page = pageBytes(size_);
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    for (auto &set : sets_) {
        std::erase_if(set, [&](const Entry &e) {
            const VAddr ebase = e.vpn * page;
            return e.asid == asid && ebase < hi && ebase + page > lo;
        });
    }
}

void
SetAssocTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &set : sets_)
        set.clear();
}

void
SetAssocTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &set : sets_)
        std::erase_if(set, [&](const Entry &e) { return e.asid == asid; });
}

void
SetAssocTlb::markDirty(VAddr vaddr)
{
    std::uint64_t vpn = vpnOf(vaddr, size_);
    for (auto &entry : sets_[setOf(vpn)]) {
        if (entry.vpn == vpn && entry.asid == asid_)
            entry.dirty = true;
    }
}

FullyAssocTlb::FullyAssocTlb(const std::string &name,
                             stats::StatGroup *parent,
                             std::uint64_t entries,
                             std::initializer_list<PageSize> sizes)
    : BaseTlb(name, parent), entries_(entries)
{
    fatal_if(entries == 0, "empty fully-associative TLB");
    lru_.reserve(entries_ + 1);
    for (PageSize size : sizes)
        sizeMask_[static_cast<unsigned>(size)] = true;
}

bool
FullyAssocTlb::supports(PageSize size) const
{
    return sizeMask_[static_cast<unsigned>(size)];
}

// mixcheck: hot
TlbLookup
FullyAssocTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.waysRead = static_cast<unsigned>(entries_);
    auto it = std::find_if(lru_.begin(), lru_.end(), [&](const Entry &e) {
        return e.xlate.covers(vaddr) && e.asid == asid_;
    });
    if (it != lru_.end()) {
        result.hit = true;
        result.xlate = it->xlate;
        result.entryDirty = it->dirty;
        std::rotate(lru_.begin(), it, it + 1); // move to MRU
    }
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
FullyAssocTlb::fill(const FillInfo &fill)
{
    panic_if(!supports(fill.leaf.size),
             "filling unsupported page size %s",
             pageSizeName(fill.leaf.size));
    auto it = std::find_if(lru_.begin(), lru_.end(), [&](const Entry &e) {
        return e.xlate.vbase == fill.leaf.vbase &&
               e.xlate.size == fill.leaf.size && e.asid == asid_;
    });
    if (it != lru_.end()) {
        it->xlate = fill.leaf;
        it->dirty = fill.leaf.dirty;
        std::rotate(lru_.begin(), it, it + 1);
        return;
    }
    lru_.insert(lru_.begin(), Entry{asid_, fill.leaf, fill.leaf.dirty});
    if (lru_.size() > entries_)
        lru_.pop_back();
    ++fills_;
}

void
FullyAssocTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    // Range semantics: any entry overlapping [vbase, vbase + bytes)
    // is stale, whatever its own page size (a demoted superpage's
    // entry must die on a 4K shootdown inside it, and vice versa).
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    std::erase_if(lru_, [&](const Entry &e) {
        const VAddr ebase = e.xlate.vbase;
        return e.asid == asid && ebase < hi &&
               ebase + pageBytes(e.xlate.size) > lo;
    });
}

void
FullyAssocTlb::invalidateAll()
{
    ++invalidations_;
    lru_.clear();
}

void
FullyAssocTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    std::erase_if(lru_, [&](const Entry &e) { return e.asid == asid; });
}

void
FullyAssocTlb::markDirty(VAddr vaddr)
{
    for (auto &entry : lru_) {
        if (entry.xlate.covers(vaddr) && entry.asid == asid_)
            entry.dirty = true;
    }
}

} // namespace mixtlb::tlb
