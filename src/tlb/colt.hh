/**
 * @file
 * COLT-style coalescing set-associative TLB (Pham et al., MICRO 2012;
 * Sec. 5.2 of the paper).
 *
 * A single-page-size TLB whose entries cover an aligned group of
 * `group` pages; contiguous (VA and PA) translations found in the leaf
 * PTE cache line coalesce into one entry via a per-slot bitmap. The
 * index drops log2(group) VPN bits so the whole group maps to one set.
 *
 * COLT   = this structure with 4KB pages, group 4 (the original work).
 * COLT++ = split TLBs where every per-size component coalesces its own
 *          page size (the extension evaluated in Figure 18).
 */

#ifndef MIXTLB_TLB_COLT_HH
#define MIXTLB_TLB_COLT_HH

#include <vector>

#include "tlb/base.hh"

namespace mixtlb::tlb
{

class ColtTlb : public BaseTlb
{
  public:
    ColtTlb(const std::string &name, stats::StatGroup *parent,
            std::uint64_t entries, unsigned assoc, PageSize size,
            unsigned group = 4);

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
     * Within one 4KB page the probed window, slot, and synthesized
     * bundle are all constant (size_ >= 4KB), and a hit leaves its
     * entry at the MRU front — both outcomes replay.
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
        VAddr wbase;   ///< group window base VA
        PAddr wpbase;  ///< physical anchor (slot 0's would-be PA)
        Asid asid;
        std::uint32_t bitmap;
        pt::Perms perms;
        bool dirty;
    };

    std::uint64_t entries_;
    unsigned assoc_;
    PageSize size_;
    unsigned group_;
    std::uint64_t numSets_;
    /** Per-set ways in LRU order (front = MRU); each set is reserved
     *  to assoc_ + 1 at construction so the hot path never
     *  reallocates. */
    std::vector<std::vector<Entry>> sets_;

    std::uint64_t
    setOf(VAddr vaddr) const
    {
        return (vpnOf(vaddr, size_) / group_) % numSets_;
    }

    VAddr
    windowBase(VAddr vbase) const
    {
        std::uint64_t span =
            static_cast<std::uint64_t>(group_) * pageBytes(size_);
        return vbase - (vbase % span);
    }
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_COLT_HH
