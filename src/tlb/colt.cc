#include "colt.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::tlb
{

ColtTlb::ColtTlb(const std::string &name, stats::StatGroup *parent,
                 std::uint64_t entries, unsigned assoc, PageSize size,
                 unsigned group)
    : BaseTlb(name, parent), entries_(entries), assoc_(assoc),
      size_(size), group_(group)
{
    fatal_if(assoc == 0 || entries == 0 || entries % assoc != 0,
             "COLT TLB geometry does not divide evenly");
    fatal_if(group == 0 || group > 32 || !isPowerOf2(group),
             "COLT group must be a power of two <= 32");
    numSets_ = entries / assoc;
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.reserve(assoc_ + 1);
}

// mixcheck: hot
TlbLookup
ColtTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.waysRead = assoc_;
    const std::uint64_t page = pageBytes(size_);
    VAddr wbase = windowBase(pageBase(vaddr, size_));
    auto slot = static_cast<unsigned>((pageBase(vaddr, size_) - wbase)
                                      / page);
    auto &set = sets_[setOf(vaddr)];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return e.wbase == wbase && e.asid == asid_ &&
               ((e.bitmap >> (slot & 31)) & 1);
    });
    if (it != set.end()) {
        std::rotate(set.begin(), it, it + 1); // move to MRU
        const Entry &entry = set.front();
        result.hit = true;
        result.xlate.size = size_;
        result.xlate.vbase = pageBase(vaddr, size_);
        result.xlate.pbase =
            entry.wpbase + (result.xlate.vbase - entry.wbase);
        result.xlate.perms = entry.perms;
        result.xlate.accessed = true;
        result.xlate.dirty = entry.dirty;
        result.entryDirty = entry.dirty;
        // Synthesize the contiguous run around the slot for lower fills.
        unsigned lo = slot, hi = slot;
        while (lo > 0 && ((entry.bitmap >> ((lo - 1) & 31)) & 1))
            lo--;
        while (hi + 1 < group_ && ((entry.bitmap >> ((hi + 1) & 31)) & 1))
            hi++;
        BundleInfo bundle;
        bundle.vbase = entry.wbase + static_cast<std::uint64_t>(lo) * page;
        bundle.pbase = entry.wpbase + static_cast<std::uint64_t>(lo) * page;
        bundle.size = size_;
        bundle.count = hi - lo + 1;
        bundle.perms = entry.perms;
        bundle.dirty = entry.dirty;
        result.bundle = bundle;
    }
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
ColtTlb::fill(const FillInfo &fill)
{
    panic_if(fill.leaf.size != size_,
             "filling a %s translation into a %s COLT TLB",
             pageSizeName(fill.leaf.size), pageSizeName(size_));
    const std::uint64_t page = pageBytes(size_);
    const pt::Translation &leaf = fill.leaf;

    Entry entry{};
    entry.wbase = windowBase(leaf.vbase);
    entry.asid = asid_;
    auto leaf_slot =
        static_cast<unsigned>((leaf.vbase - entry.wbase) / page);
    entry.wpbase = leaf.pbase
                   - static_cast<std::uint64_t>(leaf_slot) * page;
    entry.perms = leaf.perms;
    entry.bitmap = 1u << (leaf_slot & 31);
    bool all_dirty = leaf.dirty;

    auto consider = [&](VAddr vbase, PAddr pbase, pt::Perms perms,
                        bool dirty) {
        if (perms != leaf.perms || vbase < entry.wbase)
            return;
        std::uint64_t slot64 = (vbase - entry.wbase) / page;
        if (slot64 >= group_)
            return;
        if (pbase != entry.wpbase + slot64 * page)
            return;
        entry.bitmap |= 1u << (static_cast<unsigned>(slot64) & 31);
        all_dirty = all_dirty && dirty;
    };

    if (fill.walk && !fill.walk->pageFault() &&
        fill.walk->lineGranularity == size_) {
        for (const auto &slot : fill.walk->line) {
            if (slot.present && slot.xlate.accessed) {
                consider(slot.xlate.vbase, slot.xlate.pbase,
                         slot.xlate.perms, slot.xlate.dirty);
            }
        }
    }
    if (fill.bundle && fill.bundle->size == size_) {
        for (std::uint64_t i = 0; i < fill.bundle->count; i++) {
            consider(fill.bundle->vbase + i * page,
                     fill.bundle->pbase + i * page,
                     fill.bundle->perms, fill.bundle->dirty);
        }
    }
    entry.dirty = all_dirty;

    auto &set = sets_[setOf(leaf.vbase)];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return e.wbase == entry.wbase && e.wpbase == entry.wpbase &&
               e.asid == entry.asid && e.perms == entry.perms;
    });
    if (it != set.end()) {
        it->bitmap |= entry.bitmap;
        it->dirty = it->dirty && entry.dirty;
        std::rotate(set.begin(), it, it + 1); // move to MRU
        ++coalesces_;
        return;
    }
    set.insert(set.begin(), entry);
    if (set.size() > assoc_)
        set.pop_back();
    ++fills_;
}

void
ColtTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    const std::uint64_t page = pageBytes(size_);
    if (size == size_) {
        VAddr wbase = windowBase(vbase);
        auto slot = static_cast<unsigned>((vbase - wbase) / page);
        auto &set = sets_[setOf(vbase)];
        for (auto &e : set) {
            if (e.wbase == wbase && e.asid == asid)
                e.bitmap &= ~(1u << (slot & 31));
        }
        std::erase_if(set, [](const Entry &e) { return e.bitmap == 0; });
        return;
    }
    // Cross-size shootdown (superpage demotion/re-promotion): drop
    // every coalesced slot whose page overlaps [vbase, vbase + bytes).
    // The window can straddle group windows — and therefore sets — so
    // a coalesced run partially inside the window is trimmed, not
    // dropped whole, and every set must be scanned.
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    const std::uint64_t span = static_cast<std::uint64_t>(group_) * page;
    for (auto &set : sets_) {
        for (auto &e : set) {
            if (e.asid != asid || e.wbase >= hi || e.wbase + span <= lo)
                continue;
            for (unsigned slot = 0; slot < group_; slot++) {
                VAddr sbase =
                    e.wbase + static_cast<std::uint64_t>(slot) * page;
                if (sbase < hi && sbase + page > lo)
                    e.bitmap &= ~(1u << (slot & 31));
            }
        }
        std::erase_if(set, [](const Entry &e) { return e.bitmap == 0; });
    }
}

void
ColtTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &set : sets_)
        set.clear();
}

void
ColtTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &set : sets_)
        std::erase_if(set, [&](const Entry &e) { return e.asid == asid; });
}

void
ColtTlb::markDirty(VAddr vaddr)
{
    VAddr wbase = windowBase(pageBase(vaddr, size_));
    auto slot = static_cast<unsigned>(
        (pageBase(vaddr, size_) - wbase) / pageBytes(size_));
    // Only a singleton holding vaddr's own page may go dirty: another
    // singleton of the same window caches a different, still-clean
    // page.
    for (auto &entry : sets_[setOf(vaddr)]) {
        if (entry.wbase != wbase || entry.asid != asid_)
            continue;
        if (std::popcount(entry.bitmap) == 1 &&
            ((entry.bitmap >> (slot & 31)) & 1))
            entry.dirty = true;
    }
}

} // namespace mixtlb::tlb
