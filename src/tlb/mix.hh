/**
 * @file
 * The MIX TLB (Sections 3-4 of the paper): a single set-associative
 * structure that concurrently caches every page size.
 *
 * Design recap:
 *  - All lookups use the *small-page* index bits, so superpages do not
 *    map to a unique set; fills place a **mirror** copy in every set.
 *  - Fills scan the leaf PTE's cache line and **coalesce** runs of
 *    contiguous (VA and PA), same-permission, accessed superpages into
 *    one entry, counteracting the capacity the mirrors cost.
 *  - L1 entries track coalesced superpages with a **bitmap** (holes
 *    allowed, per-superpage invalidation); L2 entries use a **length**
 *    field (longer runs, whole-bundle invalidation) — Sec. 4.1.
 *  - Only runs within an aligned window of maxCoalesce superpages may
 *    coalesce (the paper's alignment restriction).
 *  - Later misses to superpages adjacent to an existing bundle (in
 *    other page-table cache lines) merge into it (Sec. 4.2).
 *  - Mirrors evolve independently under per-set LRU; duplicate copies
 *    that arise are detected and collapsed on probe (Sec. 4.3).
 *  - Bundle permission/dirty protocol follows Sec. 4.4: equal
 *    permissions required; bundle dirty bit = AND of members. Dirty
 *    micro-ops update singleton superpage entries in *every* set (the
 *    update rides the fill path's burst write), so stale mirrors do
 *    not trigger repeat micro-ops when probed through another set.
 *
 * The class also implements two evaluated variants:
 *  - colt4k > 1 adds COLT-style coalescing of contiguous small pages
 *    (the "MIX + COLT" design of Figure 18).
 *  - superpageIndexBits = true switches the index to the 2MB page's
 *    bits (the rejected design discussed in Sec. 3).
 */

#ifndef MIXTLB_TLB_MIX_HH
#define MIXTLB_TLB_MIX_HH

#include <vector>

#include "tlb/base.hh"

namespace mixtlb::tlb
{

/** How a MIX entry records its coalesced superpages (Sec. 4.1). */
enum class CoalesceMode : std::uint8_t
{
    Bitmap, ///< L1 style: one valid bit per window slot
    Length, ///< L2 style: contiguous run [runStart, runStart+length)
};

struct MixTlbParams
{
    std::uint64_t entries = 96;
    unsigned assoc = 6;
    CoalesceMode mode = CoalesceMode::Bitmap;
    /**
     * Superpages coalescible per entry; 0 means "one per set", the
     * natural choice since that offsets mirroring exactly. Bitmap mode
     * caps at 64 (a 64-bit map repurposed from spare tag bits).
     */
    unsigned maxCoalesce = 0;
    /**
     * Contiguous small pages coalescible per entry (1 = off,
     * 4 = COLT). Capped at 64: membership lives in the 64-bit bitmap.
     */
    unsigned colt4k = 1;
    /** Ablation: index with 2MB-page bits instead of 4KB bits (Sec. 3). */
    bool superpageIndexBits = false;
    /** Ablation: drop the alignment restriction of Sec. 4.1. */
    bool alignmentRestricted = true;
};

class MixTlb : public BaseTlb
{
  public:
    MixTlb(const std::string &name, stats::StatGroup *parent,
           const MixTlbParams &params);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool supports(PageSize) const override { return true; }
    std::uint64_t numEntries() const override { return params_.entries; }
    unsigned numWays() const override { return params_.assoc; }

    /**
     * A hit replays only when its duplicate-collapse pass merged
     * nothing: with the set unchanged, a repeat probe within the same
     * 4KB page (same index, same covering front entry, same bundle)
     * again merges nothing. A hit that did collapse mirrors mutated
     * the set; in Length mode the merge can even extend the run and
     * enable further merges, so it must not be short-circuited.
     * Misses scan without mutating and always replay.
     */
    bool
    replayable(const TlbLookup &result, VAddr vaddr) const override
    {
        (void)vaddr;
        return !(result.hit && lastLookupMerged_);
    }

    unsigned numSets() const { return numSets_; }
    unsigned maxCoalesce() const { return maxCoalesce_; }

    /** Mirror copies written per superpage fill (for energy studies). */
    double mirrorWrites() const { return double(mirrorWrites_.value()); }

    /**
     * Structural audit of every set (Sec. 4.1/4.3/4.4 invariants):
     * mirror copies of one superpage window must agree on physical
     * anchor and permissions across sets, singleton mirrors must agree
     * on the dirty bit, membership must stay inside the aligned
     * maxCoalesce (or colt4k) window, and small-page entries must live
     * in the one set their index selects.
     */
    void auditSets(contracts::AuditReport &report) const;

    void
    audit(contracts::AuditReport &report) const override
    {
        auditSets(report);
    }

  private:
    /**
     * One MIX TLB entry. The entry covers an aligned *window* of
     * `groupSlots(size)` pages of its size, anchored at wbase; slot i
     * is present iff the membership test passes AND that page's
     * physical address equals wpbase + i * pageBytes(size) (coalescing
     * requires both VA and PA contiguity).
     */
    struct Entry
    {
        PageSize size;
        Asid asid;
        VAddr wbase;          ///< window base virtual address
        PAddr wpbase;         ///< physical address window anchor
        std::uint64_t bitmap; ///< Bitmap mode (and all 4K entries)
        std::uint32_t runStart; ///< Length mode: first present slot
        std::uint32_t length;   ///< Length mode: present slot count
        pt::Perms perms;
        bool dirty;

        bool slotPresent(unsigned slot, CoalesceMode mode) const;
    };

    MixTlbParams params_;
    unsigned numSets_;
    unsigned maxCoalesce_;
    /** Mask for power-of-two set counts; 0 selects the modulo path. */
    std::uint64_t setMask_;
    /** log2(colt4k); colt4k is enforced to be a power of two. */
    unsigned colt4kShift_;

    /** Per-set ways, front = MRU. */
    std::vector<std::vector<Entry>> sets_;

    /** Did the most recent lookup() collapse any duplicate mirrors? */
    bool lastLookupMerged_ = false;

    stats::Counter &mirrorWrites_;
    stats::Counter &duplicatesRemoved_;
    stats::Counter &extensions_;

    /** The set probed for @p vaddr (small-page or ablation indexing). */
    unsigned indexOf(VAddr vaddr) const;

    /** Pages per coalescing window for a given page size. */
    unsigned groupSlots(PageSize size) const;

    /** Window base covering @p vbase for a page of @p size. */
    VAddr windowBase(VAddr vbase, PageSize size) const;

    /** Does @p entry cover @p vaddr (present slot)? */
    bool entryCovers(const Entry &entry, VAddr vaddr) const;

    /**
     * Build the entry for a fill: the window around @p leaf populated
     * with every compatible coalescing candidate from the walk line or
     * an upper-level bundle.
     */
    Entry buildEntry(const FillInfo &fill) const;

    /** Merge @p incoming into @p existing (requires compatible()). */
    void merge(Entry &existing, const Entry &incoming);

    /** Same window/anchor/perms and (length mode) unionable runs. */
    bool compatible(const Entry &a, const Entry &b) const;

    /** Insert @p entry into set @p set, merging or evicting LRU. */
    void insertIntoSet(unsigned set, const Entry &entry);

    /** Insert without a merge check (non-probed mirror sets). */
    void blindInsert(unsigned set, const Entry &entry);

    /** Synthesize the bundle around the slot covering @p vaddr. */
    BundleInfo bundleAround(const Entry &entry, VAddr vaddr) const;

    /** Number of present pages in @p entry. */
    unsigned population(const Entry &entry) const;

    /** Test-only backdoor for the corruption-injection audit tests. */
    friend struct MixTlbTestAccess;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_MIX_HH
