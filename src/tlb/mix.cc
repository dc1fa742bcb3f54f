#include "mix.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::tlb
{

MixTlb::MixTlb(const std::string &name, stats::StatGroup *parent,
               const MixTlbParams &params)
    : BaseTlb(name, parent), params_(params),
      mirrorWrites_(stats_.addCounter("mirror_writes",
          "superpage mirror copies written on fills")),
      duplicatesRemoved_(stats_.addCounter("duplicates_removed",
          "duplicate mirrors collapsed on probe (Sec. 4.3)")),
      extensions_(stats_.addCounter("extensions",
          "existing bundles extended by later fills (Sec. 4.2)"))
{
    MIX_EXPECT(params.assoc > 0 && params.entries > 0 &&
               params.entries % params.assoc == 0,
               "MIX TLB geometry does not divide evenly");
    MIX_EXPECT(params.colt4k != 0 && isPowerOf2(params.colt4k),
               "colt4k must be a nonzero power of two");
    // Small-page entries always track membership with the 64-bit
    // bitmap; a wider window would shift past it (undefined behaviour
    // in buildEntry/invalidate).
    MIX_EXPECT(params.colt4k <= 64,
               "colt4k exceeds the 64-slot bitmap (got %u)",
               params.colt4k);
    numSets_ = static_cast<unsigned>(params.entries / params.assoc);
    maxCoalesce_ = params.maxCoalesce ? params.maxCoalesce : numSets_;
    if (params.mode == CoalesceMode::Bitmap && maxCoalesce_ > 64)
        maxCoalesce_ = 64; // a 64-bit map is the storage ceiling
    setMask_ = (numSets_ & (numSets_ - 1)) == 0 ? numSets_ - 1 : 0;
    colt4kShift_ =
        static_cast<unsigned>(std::countr_zero(params.colt4k));
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.reserve(params_.assoc + 1);
}

bool
MixTlb::Entry::slotPresent(unsigned slot, CoalesceMode mode) const
{
    if (size == PageSize::Size4K || mode == CoalesceMode::Bitmap)
        return (bitmap >> (slot & 63)) & 1; // bitmap windows have <= 64 slots
    return slot >= runStart && slot < runStart + length;
}

unsigned
MixTlb::indexOf(VAddr vaddr) const
{
    const std::uint64_t index =
        params_.superpageIndexBits
            ? vaddr >> PageShift2M
            : vaddr >> ((PageShift4K + colt4kShift_) & 63);
    if (setMask_)
        return static_cast<unsigned>(index & setMask_);
    return static_cast<unsigned>(index % numSets_);
}

unsigned
MixTlb::groupSlots(PageSize size) const
{
    return size == PageSize::Size4K ? params_.colt4k : maxCoalesce_;
}

VAddr
MixTlb::windowBase(VAddr vbase, PageSize size) const
{
    std::uint64_t span =
        static_cast<std::uint64_t>(groupSlots(size)) * pageBytes(size);
    return vbase - (vbase % span);
}

bool
MixTlb::entryCovers(const Entry &entry, VAddr vaddr) const
{
    if (entry.asid != asid_)
        return false;
    std::uint64_t span =
        static_cast<std::uint64_t>(groupSlots(entry.size))
        * pageBytes(entry.size);
    if (vaddr < entry.wbase || vaddr >= entry.wbase + span)
        return false;
    auto slot = static_cast<unsigned>((vaddr - entry.wbase)
                                      / pageBytes(entry.size));
    return entry.slotPresent(slot, params_.mode);
}

unsigned
MixTlb::population(const Entry &entry) const
{
    if (entry.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        return static_cast<unsigned>(std::popcount(entry.bitmap));
    }
    return entry.length;
}

bool
MixTlb::compatible(const Entry &a, const Entry &b) const
{
    if (a.size != b.size || a.asid != b.asid || a.wbase != b.wbase ||
        a.wpbase != b.wpbase || !(a.perms == b.perms)) {
        return false;
    }
    if (a.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        return true; // bitmaps always union
    }
    // Length mode: only runs that overlap or touch can share an entry;
    // disjoint runs of the same window coexist as separate entries.
    std::uint32_t a1 = a.runStart, a2 = a1 + a.length;
    std::uint32_t b1 = b.runStart, b2 = b1 + b.length;
    return b1 <= a2 && a1 <= b2;
}

void
MixTlb::merge(Entry &existing, const Entry &incoming)
{
    if (existing.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        existing.bitmap |= incoming.bitmap;
    } else {
        std::uint32_t a1 = existing.runStart;
        std::uint32_t a2 = a1 + existing.length;
        std::uint32_t b1 = incoming.runStart;
        std::uint32_t b2 = b1 + incoming.length;
        existing.runStart = std::min(a1, b1);
        existing.length = std::max(a2, b2) - existing.runStart;
    }
    existing.dirty = existing.dirty && incoming.dirty;
}

// mixcheck: hot
TlbLookup
MixTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    lastLookupMerged_ = false;
    TlbLookup result;
    result.waysRead = params_.assoc;
    auto &set = sets_[indexOf(vaddr)];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return entryCovers(e, vaddr);
    });
    if (it != set.end()) {
        // Sec. 4.3: the probe tag-compares the whole set, so duplicate
        // mirrors of the matched bundle are visible; collapse them.
        auto hit = static_cast<std::size_t>(it - set.begin());
        for (std::size_t i = 0; i < set.size();) {
            if (i != hit && compatible(set[hit], set[i])) {
                merge(set[hit], set[i]);
                set.erase(set.begin() + i);
                if (i < hit)
                    hit--;
                ++duplicatesRemoved_;
                lastLookupMerged_ = true;
            } else {
                i++;
            }
        }
        std::rotate(set.begin(), set.begin() + hit,
                    set.begin() + hit + 1); // move to MRU
        const Entry &entry = set.front();
        result.hit = true;
        result.xlate.size = entry.size;
        result.xlate.vbase = pageBase(vaddr, entry.size);
        result.xlate.pbase =
            entry.wpbase + (result.xlate.vbase - entry.wbase);
        result.xlate.perms = entry.perms;
        result.xlate.accessed = true;
        result.xlate.dirty = entry.dirty;
        result.entryDirty = entry.dirty;
        result.bundle = bundleAround(entry, vaddr);
    }
    recordLookup(result);
    return result;
}

MixTlb::Entry
MixTlb::buildEntry(const FillInfo &fill) const
{
    const pt::Translation &leaf = fill.leaf;
    const unsigned group = groupSlots(leaf.size);
    const std::uint64_t page = pageBytes(leaf.size);

    Entry entry{};
    entry.size = leaf.size;
    entry.asid = asid_;
    entry.perms = leaf.perms;
    entry.wbase = params_.alignmentRestricted
                      ? windowBase(leaf.vbase, leaf.size)
                      : leaf.vbase; // floating anchor (ablation)
    const auto leaf_slot =
        static_cast<unsigned>((leaf.vbase - entry.wbase) / page);
    entry.wpbase = leaf.pbase - static_cast<std::uint64_t>(leaf_slot)
                                * page;
    entry.dirty = leaf.dirty;

    // Candidate membership per window slot, from the walk line and/or
    // an upper-level bundle. Slot 'leaf_slot' is always present.
    // The scratchpad is a 64-bit map: in length mode a window can hold
    // more than 64 slots, and anything past the map simply cannot be
    // coalesced by this fill (shifting past it used to be undefined).
    const bool leaf_tracked = leaf_slot < 64;
    std::uint64_t present = leaf_tracked ? pow2(leaf_slot) : 0;
    std::uint64_t all_dirty =
        leaf.dirty || !leaf_tracked ? ~0ULL : ~pow2(leaf_slot);

    auto consider = [&](VAddr vbase, PAddr pbase, pt::Perms perms,
                        bool dirty) {
        if (perms != leaf.perms)
            return; // Sec. 4.4: equal permissions only
        if (vbase < entry.wbase)
            return;
        std::uint64_t slot64 = (vbase - entry.wbase) / page;
        if (slot64 >= group || slot64 >= 64)
            return; // outside the window or past the scratchpad
        auto slot = static_cast<unsigned>(slot64);
        // PA must sit exactly where window-affine contiguity demands.
        if (pbase != entry.wpbase + slot64 * page)
            return;
        present |= pow2(slot);
        if (!dirty)
            all_dirty &= ~pow2(slot);
    };

    if (fill.walk && !fill.walk->pageFault() &&
        fill.walk->lineGranularity == leaf.size) {
        for (const auto &slot : fill.walk->line) {
            // Sec. 4.4: only translations with the accessed bit set may
            // be coalesced at fill time.
            if (slot.present && slot.xlate.accessed) {
                consider(slot.xlate.vbase, slot.xlate.pbase,
                         slot.xlate.perms, slot.xlate.dirty);
            }
        }
    }
    if (fill.bundle && fill.bundle->size == leaf.size) {
        const BundleInfo &bundle = *fill.bundle;
        for (std::uint64_t i = 0; i < bundle.count; i++) {
            consider(bundle.vbase + i * page, bundle.pbase + i * page,
                     bundle.perms, bundle.dirty);
        }
    }

    if (leaf.size != PageSize::Size4K &&
        params_.mode == CoalesceMode::Length) {
        // Contiguous run through the leaf slot, holes excluded.
        auto tracked = [&](unsigned slot) {
            return slot < 64 && ((present >> (slot & 63)) & 1) != 0;
        };
        unsigned lo = leaf_slot;
        while (lo > 0 && tracked(lo - 1))
            lo--;
        unsigned hi = leaf_slot;
        while (hi + 1 < group && tracked(hi + 1))
            hi++;
        entry.runStart = lo;
        entry.length = hi - lo + 1;
        if (lo >= 64) {
            // The run sits entirely past the scratchpad; only the
            // demanded leaf is known.
            entry.dirty = leaf.dirty;
        } else {
            const std::uint64_t run_mask =
                entry.length >= 64 ? ~0ULL
                                   : shiftLeft(pow2(entry.length) - 1, lo);
            entry.dirty = (all_dirty & run_mask) == run_mask;
        }
        entry.bitmap = 0;
    } else {
        entry.bitmap = present;
        entry.dirty = (all_dirty & present) == present;
    }
    return entry;
}

void
MixTlb::insertIntoSet(unsigned set_idx, const Entry &entry)
{
    auto &set = sets_[set_idx];
    auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
        return compatible(e, entry);
    });
    if (it != set.end()) {
        unsigned before = population(*it);
        merge(*it, entry);
        std::rotate(set.begin(), it, it + 1); // move to MRU
        if (population(set.front()) > before)
            ++extensions_;
        ++coalesces_;
        return;
    }
    set.insert(set.begin(), entry);
    if (set.size() > params_.assoc)
        set.pop_back();
    ++fills_;
    if (entry.size != PageSize::Size4K)
        ++mirrorWrites_;
}

void
MixTlb::blindInsert(unsigned set_idx, const Entry &entry)
{
    // Sec. 4.3: non-probed sets are filled without checking for an
    // existing copy (scanning every set on fill would cost too much
    // energy); duplicates this creates collapse on a later probe.
    auto &set = sets_[set_idx];
    set.insert(set.begin(), entry);
    if (set.size() > params_.assoc)
        set.pop_back();
    ++fills_;
    if (entry.size != PageSize::Size4K)
        ++mirrorWrites_;
}

// mixcheck: hot
void
MixTlb::fill(const FillInfo &fill)
{
    Entry entry = buildEntry(fill);
    MIX_AUDIT(groupSlots(entry.size) >= 64 ||
              (entry.bitmap >> groupSlots(entry.size)) == 0,
              "fill built membership outside the %u-slot window",
              groupSlots(entry.size));
    const VAddr demanded = fill.vaddr ? fill.vaddr : fill.leaf.vbase;
    const unsigned probed = indexOf(demanded);

    if (entry.size == PageSize::Size4K) {
        // Small pages map to exactly one set (the window's pages share
        // the index because the index drops log2(colt4k) bits).
        insertIntoSet(probed, entry);
        return;
    }

    if (!params_.superpageIndexBits) {
        // Small-page index bits: each superpage spans at least
        // 512 index values, so the bundle mirrors into every set.
        //
        // L1 (bitmap) fills follow Sec. 4.3 exactly: only the probed
        // set merges into an existing bundle; the others are mirrored
        // blindly and duplicates collapse on later probes. L2 (length)
        // fills extend a matching bundle in every set — the "slightly
        // more complex hardware" Sec. 4 grants the L2 level, and what
        // lets coalescing grow to offset the full mirror count at L2
        // reach (Sec. 4.2's extension of bundles across cache lines).
        const bool merge_everywhere = params_.mode == CoalesceMode::Length;
        for (unsigned s = 0; s < numSets_; s++) {
            if (s == probed || merge_everywhere)
                insertIntoSet(s, entry);
            else
                blindInsert(s, entry);
        }
        return;
    }

    // Ablation (Sec. 3): superpage index bits. A 2MB page maps to one
    // set; a 1GB page still spans 512 2MB indices.
    if (entry.size == PageSize::Size2M) {
        insertIntoSet(indexOf(fill.leaf.vbase), entry);
    } else {
        for (unsigned s = 0; s < numSets_; s++) {
            if (s == probed)
                insertIntoSet(s, entry);
            else
                blindInsert(s, entry);
        }
    }
}

BundleInfo
MixTlb::bundleAround(const Entry &entry, VAddr vaddr) const
{
    const std::uint64_t page = pageBytes(entry.size);
    auto slot = static_cast<unsigned>((vaddr - entry.wbase) / page);
    unsigned lo = slot, hi = slot;
    if (entry.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        while (lo > 0 && ((entry.bitmap >> ((lo - 1) & 63)) & 1))
            lo--;
        while (hi + 1 < groupSlots(entry.size) &&
               ((entry.bitmap >> ((hi + 1) & 63)) & 1)) {
            hi++;
        }
    } else {
        lo = entry.runStart;
        hi = entry.runStart + entry.length - 1;
    }
    BundleInfo bundle;
    bundle.vbase = entry.wbase + static_cast<std::uint64_t>(lo) * page;
    bundle.pbase = entry.wpbase + static_cast<std::uint64_t>(lo) * page;
    bundle.size = entry.size;
    bundle.count = hi - lo + 1;
    bundle.perms = entry.perms;
    bundle.dirty = entry.dirty;
    return bundle;
}

void
MixTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);

    // Range semantics: an entry is stale when any present slot's page
    // overlaps [lo, hi), whatever the entry's own page size. A
    // demotion's superpage-sized shootdown must clear the 4K and
    // coalesced entries under its window, and a 4K shootdown inside a
    // stale superpage must kill that superpage's mirrors — which live
    // in *every* set and evolve independently under per-set LRU, so
    // all sets are swept (shootdowns are off the hot lookup path).
    for (auto &set : sets_) {
        for (Entry &entry : set) {
            const std::uint64_t epage = pageBytes(entry.size);
            const unsigned slots = groupSlots(entry.size);
            const std::uint64_t span = epage * slots;
            if (entry.asid != asid || entry.wbase >= hi ||
                entry.wbase + span <= lo) {
                continue;
            }
            // Slots of the entry's window overlapped by [lo, hi).
            const auto s0 = lo > entry.wbase
                ? static_cast<unsigned>((lo - entry.wbase) / epage)
                : 0u;
            const auto s1 = static_cast<unsigned>(
                std::min<std::uint64_t>(slots - 1,
                                        (hi - 1 - entry.wbase) / epage));
            if (entry.size == PageSize::Size4K ||
                params_.mode == CoalesceMode::Bitmap) {
                // Sec. 4.4: clear just the covered bits; neighbours
                // outside the window stay cached (partial trim).
                for (unsigned s = s0; s <= s1; s++)
                    entry.bitmap &= ~(1ULL << (s & 63));
                continue;
            }
            // Length mode: drop the whole bundle if any covered slot
            // is present (the paper's simple approach).
            bool present = false;
            for (unsigned s = s0; s <= s1 && !present; s++)
                present = entry.slotPresent(s, params_.mode);
            if (present)
                entry.length = 0;
        }
        // Live entries always hold a page (auditSets checks it), so
        // only the entries emptied above go.
        std::erase_if(set, [&](const Entry &entry) {
            return population(entry) == 0;
        });
    }
}

void
MixTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &set : sets_)
        set.clear();
}

void
MixTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &set : sets_)
        std::erase_if(set, [&](const Entry &e) { return e.asid == asid; });
}

void
MixTlb::markDirty(VAddr vaddr)
{
    // Sec. 4.4: the bundle dirty bit may only be set when every
    // member is dirty; hardware only knows that for singletons.
    bool superpage_covered = false;
    bool small_covered = false;
    auto mark = [&](std::vector<Entry> &set) {
        for (auto &entry : set) {
            if (!entryCovers(entry, vaddr))
                continue;
            (entry.size == PageSize::Size4K ? small_covered
                                            : superpage_covered) = true;
            if (population(entry) == 1)
                entry.dirty = true;
        }
    };
    const unsigned probed = indexOf(vaddr);
    mark(sets_[probed]);

    // Superpage entries are mirrored into every set; the dirty update
    // rides the same burst-write path as the fill, so stale mirrors in
    // non-probed sets are updated too. Otherwise a later probe of the
    // same superpage through another set hits a clean mirror and
    // re-issues the dirty micro-op. Small pages live in exactly one
    // set, so a pure small-page cover stops at the probed set.
    if (small_covered && !superpage_covered)
        return;
    for (unsigned s = 0; s < numSets_; s++) {
        if (s != probed)
            mark(sets_[s]);
    }
}

void
MixTlb::auditSets(contracts::AuditReport &report) const
{
    // Mirror agreement (Sec. 4.3/4.4): every entry covering one
    // superpage, in whichever set it landed, must translate it to the
    // same physical page with the same permissions. Keyed per *slot*,
    // not per window: one window legally holds several coalesced runs
    // whose extrapolated anchors differ (the member pages are not
    // physically contiguous across runs). Singleton copies of one
    // superpage must also agree on the dirty bit (stale clean mirrors
    // re-issue dirty micro-ops — the PR 1 bug class).
    // Keys carry the ASID: identical windows of different address
    // spaces are distinct translations, not mirrors of each other.
    std::map<std::tuple<Asid, std::uint8_t, VAddr, unsigned>,
             std::pair<PAddr, pt::Perms>> covered;
    std::map<std::tuple<Asid, std::uint8_t, VAddr, unsigned>, bool>
        singletons;

    for (unsigned s = 0; s < numSets_; s++) {
        const auto &set = sets_[s];
        MIX_AUDIT_CHECK(report, set.size() <= params_.assoc,
                        "set %u holds %zu entries but has %u ways", s,
                        set.size(), params_.assoc);
        for (const Entry &entry : set) {
            const unsigned group = groupSlots(entry.size);
            const std::uint64_t page = pageBytes(entry.size);
            const std::uint64_t span = group * page;
            const bool bitmap_mode =
                entry.size == PageSize::Size4K ||
                params_.mode == CoalesceMode::Bitmap;

            MIX_AUDIT_CHECK(report, population(entry) > 0,
                            "set %u: empty entry for window 0x%llx", s,
                            (unsigned long long)entry.wbase);
            if (bitmap_mode) {
                // Membership must stay inside the aligned window: for
                // 4K entries that is the colt4k slots of the 64-bit
                // bitmap (a bit past colt4k means an out-of-window
                // shift corrupted it), for superpages the maxCoalesce
                // window.
                MIX_AUDIT_CHECK(
                    report,
                    group >= 64 || (entry.bitmap >> group) == 0,
                    "set %u: %s window 0x%llx has membership bits "
                    "outside its %u slots (bitmap 0x%llx)",
                    s, pageSizeName(entry.size),
                    (unsigned long long)entry.wbase, group,
                    (unsigned long long)entry.bitmap);
            } else {
                MIX_AUDIT_CHECK(
                    report,
                    entry.length >= 1 &&
                        entry.runStart + entry.length <= group,
                    "set %u: run [%u, %u) exceeds the %u-slot window",
                    s, entry.runStart, entry.runStart + entry.length,
                    group);
            }
            if (params_.alignmentRestricted) {
                MIX_AUDIT_CHECK(
                    report, entry.wbase % span == 0,
                    "set %u: window base 0x%llx not aligned to 0x%llx",
                    s, (unsigned long long)entry.wbase,
                    (unsigned long long)span);
            }
            MIX_AUDIT_CHECK(report, entry.wpbase % page == 0,
                            "set %u: physical anchor 0x%llx not %s "
                            "page aligned",
                            s, (unsigned long long)entry.wpbase,
                            pageSizeName(entry.size));

            // Small pages are never mirrored: the entry must sit in
            // the one set its (window) index selects.
            if (entry.size == PageSize::Size4K) {
                MIX_AUDIT_CHECK(
                    report, indexOf(entry.wbase) == s,
                    "set %u: 4K window 0x%llx indexed to set %u", s,
                    (unsigned long long)entry.wbase,
                    indexOf(entry.wbase));
                continue;
            }

            for (unsigned slot = 0; slot < group; slot++) {
                if (!entry.slotPresent(slot, params_.mode))
                    continue;
                const PAddr slot_pa =
                    entry.wpbase
                    + static_cast<std::uint64_t>(slot) * page;
                auto key = std::make_tuple(
                    entry.asid, static_cast<std::uint8_t>(entry.size),
                    entry.wbase, slot);
                auto [it, inserted] = covered.emplace(
                    key, std::make_pair(slot_pa, entry.perms));
                if (inserted)
                    continue;
                MIX_AUDIT_CHECK(
                    report, it->second.first == slot_pa,
                    "mirror disagreement: %s page 0x%llx maps to "
                    "PA 0x%llx in one set, 0x%llx in set %u",
                    pageSizeName(entry.size),
                    (unsigned long long)(entry.wbase + slot * page),
                    (unsigned long long)it->second.first,
                    (unsigned long long)slot_pa, s);
                MIX_AUDIT_CHECK(
                    report, it->second.second == entry.perms,
                    "mirror disagreement: %s page 0x%llx carries "
                    "different permissions in set %u",
                    pageSizeName(entry.size),
                    (unsigned long long)(entry.wbase + slot * page),
                    s);
            }

            if (population(entry) == 1) {
                unsigned slot = 0;
                if (bitmap_mode) {
                    slot = static_cast<unsigned>(
                        std::countr_zero(entry.bitmap));
                } else {
                    slot = entry.runStart;
                }
                auto dirty_key = std::make_tuple(
                    entry.asid, static_cast<std::uint8_t>(entry.size),
                    entry.wbase, slot);
                auto [dit, dinserted] =
                    singletons.emplace(dirty_key, entry.dirty);
                if (!dinserted) {
                    MIX_AUDIT_CHECK(
                        report, dit->second == entry.dirty,
                        "stale dirty mirror: singleton %s page "
                        "0x%llx is dirty in one set, clean in set %u "
                        "(Sec. 4.4 protocol)",
                        pageSizeName(entry.size),
                        (unsigned long long)(entry.wbase + slot * page),
                        s);
                }
            }
        }
    }
}

} // namespace mixtlb::tlb
