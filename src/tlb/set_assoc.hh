/**
 * @file
 * Classic single-page-size TLBs: set-associative (the building block of
 * commercial split TLBs) and fully-associative (used for the tiny 1GB
 * L1 TLBs in Haswell-class parts).
 */

#ifndef MIXTLB_TLB_SET_ASSOC_HH
#define MIXTLB_TLB_SET_ASSOC_HH

#include <vector>

#include "tlb/base.hh"

namespace mixtlb::tlb
{

/**
 * A conventional set-associative TLB caching exactly one page size.
 * Index bits come from the low bits of that size's VPN; LRU within a
 * set. Lookups for other page sizes always miss (they belong in a
 * different split component).
 */
class SetAssocTlb : public BaseTlb
{
  public:
    /**
     * @param entries total entries; must divide evenly by @p assoc.
     * Sets need not be a power of two (the simulator indexes modulo
     * the set count).
     */
    SetAssocTlb(const std::string &name, stats::StatGroup *parent,
                std::uint64_t entries, unsigned assoc, PageSize size);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool supports(PageSize size) const override { return size == size_; }
    std::uint64_t numEntries() const override { return entries_; }
    unsigned numWays() const override { return assoc_; }

    /**
     * Lookups only rotate the hit entry to the MRU front: within one
     * 4KB page the VPN — hence the set, the match, and the (no-op)
     * rotate — cannot change, for hits and misses alike.
     */
    bool
    replayable(const TlbLookup &result, VAddr vaddr) const override
    {
        (void)result;
        (void)vaddr;
        return true;
    }

  private:
    struct Entry
    {
        std::uint64_t vpn; ///< in this page size's units
        Asid asid;
        pt::Translation xlate;
        bool dirty;
    };

    std::uint64_t entries_;
    unsigned assoc_;
    PageSize size_;
    std::uint64_t numSets_;
    /** Mask for power-of-two set counts; 0 selects the modulo path. */
    std::uint64_t setMask_;
    /** Per-set ways, front = MRU (small, so shifts are cheap). */
    std::vector<std::vector<Entry>> sets_;

    std::uint64_t
    setOf(std::uint64_t vpn) const
    {
        return setMask_ ? (vpn & setMask_) : vpn % numSets_;
    }
};

/**
 * A fully-associative TLB. It may be restricted to a subset of page
 * sizes (e.g. the 4-entry 1GB L1 TLB) — full associativity sidesteps
 * the set-index chicken-and-egg problem, at high lookup energy.
 */
class FullyAssocTlb : public BaseTlb
{
  public:
    FullyAssocTlb(const std::string &name, stats::StatGroup *parent,
                  std::uint64_t entries,
                  std::initializer_list<PageSize> sizes);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool supports(PageSize size) const override;
    std::uint64_t numEntries() const override { return entries_; }
    unsigned numWays() const override
    {
        return static_cast<unsigned>(entries_);
    }

    /**
     * Page coverage is constant across a 4KB page (every cached page
     * is at least 4KB and aligned), and a hit leaves its entry at the
     * MRU front, so any outcome replays within the page.
     */
    bool
    replayable(const TlbLookup &result, VAddr vaddr) const override
    {
        (void)result;
        (void)vaddr;
        return true;
    }

  private:
    struct Entry
    {
        Asid asid;
        pt::Translation xlate;
        bool dirty;
    };

    std::uint64_t entries_;
    bool sizeMask_[NumPageSizes] = {};
    std::vector<Entry> lru_; ///< front = MRU
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_SET_ASSOC_HH
