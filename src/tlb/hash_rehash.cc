#include "hash_rehash.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mixtlb::tlb
{

HashRehashTlb::HashRehashTlb(const std::string &name,
                             stats::StatGroup *parent,
                             const HashRehashParams &params)
    : BaseTlb(name, parent), params_(params)
{
    fatal_if(params.assoc == 0 || params.entries == 0 ||
             params.entries % params.assoc != 0,
             "hash-rehash TLB geometry does not divide evenly");
    fatal_if(params.sizes.empty(), "hash-rehash TLB with no page sizes");
    numSets_ = params.entries / params.assoc;
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.reserve(params_.assoc + 1);
    probeOrder_ = params_.sizes;
    if (params.usePredictor) {
        predictor_ = std::make_unique<SizePredictor>(
            "predictor", &stats_, params.predictorEntries);
    }
}

bool
HashRehashTlb::supports(PageSize size) const
{
    return std::find(params_.sizes.begin(), params_.sizes.end(), size)
           != params_.sizes.end();
}

HashRehashTlb::Entry *
HashRehashTlb::probe(VAddr vaddr, PageSize size)
{
    auto &set = sets_[setOf(vaddr, size)];
    std::uint64_t vpn = vpnOf(vaddr, size);
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return e.size == size && e.vpn == vpn && e.asid == asid_;
    });
    if (it == set.end())
        return nullptr;
    std::rotate(set.begin(), it, it + 1); // move to MRU
    return &set.front();
}

// mixcheck: hot
TlbLookup
HashRehashTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.probes = 0;
    result.waysRead = 0;

    // Build the probe order in preallocated scratch (allocation-free
    // hot path): predicted size first, then the rest.
    std::copy(params_.sizes.begin(), params_.sizes.end(),
              probeOrder_.begin());
    if (predictor_) {
        PageSize predicted = predictor_->predict(vaddr);
        auto it = std::find(probeOrder_.begin(), probeOrder_.end(),
                            predicted);
        if (it != probeOrder_.end())
            std::rotate(probeOrder_.begin(), it, it + 1);
    }

    for (PageSize size : probeOrder_) {
        result.probes++;
        result.waysRead += params_.assoc;
        Entry *entry = probe(vaddr, size);
        if (!entry)
            continue;
        result.hit = true;
        result.xlate = entry->xlate;
        result.entryDirty = entry->dirty;
        if (predictor_) {
            predictor_->recordOutcome(result.probes == 1);
            predictor_->update(vaddr, size);
        }
        break;
    }
    // A miss after exhausting all sizes resolves only via the walker;
    // the predictor trains in fill().
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
HashRehashTlb::fill(const FillInfo &fill)
{
    panic_if(!supports(fill.leaf.size),
             "hash-rehash TLB does not cache %s pages",
             pageSizeName(fill.leaf.size));
    std::uint64_t vpn = fill.leaf.vpn();
    auto &set = sets_[setOf(fill.leaf.vbase, fill.leaf.size)];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return e.size == fill.leaf.size && e.vpn == vpn && e.asid == asid_;
    });
    if (it != set.end()) {
        it->xlate = fill.leaf;
        it->dirty = fill.leaf.dirty;
        std::rotate(set.begin(), it, it + 1); // move to MRU
    } else {
        set.insert(set.begin(), Entry{fill.leaf.size, vpn, asid_,
                                      fill.leaf, fill.leaf.dirty});
        if (set.size() > params_.assoc)
            set.pop_back();
        ++fills_;
    }
    if (predictor_) {
        // Train on the demanded address (predictor is 2MB-region
        // indexed; a superpage base can hash to a different slot).
        predictor_->update(fill.vaddr ? fill.vaddr : fill.leaf.vbase,
                           fill.leaf.size);
    }
}

void
HashRehashTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    if (supports(size)) {
        // An entry of the shot-down size hashes to one known set.
        std::uint64_t vpn = vpnOf(vbase, size);
        std::erase_if(sets_[setOf(vbase, size)], [&](const Entry &e) {
            return e.size == size && e.vpn == vpn && e.asid == asid;
        });
    }
    // Entries of *other* sizes overlapping [vbase, vbase + bytes) —
    // 4K children of a demoted superpage, or a stale superpage over a
    // 4K shootdown — rehash to unpredictable sets, so scan them all
    // (shootdowns are off the hot lookup path).
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    for (auto &set : sets_) {
        std::erase_if(set, [&](const Entry &e) {
            if (e.size == size || e.asid != asid)
                return false;
            const VAddr ebase = e.xlate.vbase;
            return ebase < hi && ebase + pageBytes(e.size) > lo;
        });
    }
}

void
HashRehashTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &set : sets_)
        set.clear();
}

void
HashRehashTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &set : sets_)
        std::erase_if(set, [&](const Entry &e) { return e.asid == asid; });
}

void
HashRehashTlb::markDirty(VAddr vaddr)
{
    for (PageSize size : params_.sizes) {
        std::uint64_t vpn = vpnOf(vaddr, size);
        for (auto &entry : sets_[setOf(vaddr, size)]) {
            if (entry.size == size && entry.vpn == vpn &&
                entry.asid == asid_)
                entry.dirty = true;
        }
    }
}

} // namespace mixtlb::tlb
