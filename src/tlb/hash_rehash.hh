/**
 * @file
 * A hash-rehash TLB (Sec. 5.1): one set-associative array caching all
 * page sizes, probed repeatedly — once per candidate page size — until
 * a hit or all sizes are exhausted. An optional size predictor chooses
 * the first probe (the "prediction-based enhancement" of [10]).
 *
 * This is the organisation Intel uses for its unified 4KB+2MB L2 TLBs.
 * Its cost is variable hit latency and extra probe energy, which the
 * evaluation (Figure 16) quantifies against MIX TLBs.
 */

#ifndef MIXTLB_TLB_HASH_REHASH_HH
#define MIXTLB_TLB_HASH_REHASH_HH

#include <vector>

#include "tlb/base.hh"
#include "tlb/predictor.hh"

namespace mixtlb::tlb
{

struct HashRehashParams
{
    std::uint64_t entries = 512;
    unsigned assoc = 8;
    /** Page sizes this structure caches, in default probe order. */
    std::vector<PageSize> sizes{PageSize::Size4K, PageSize::Size2M,
                                PageSize::Size1G};
    /** Probe first with a size predictor instead of fixed order. */
    bool usePredictor = false;
    unsigned predictorEntries = 512;
};

class HashRehashTlb : public BaseTlb
{
  public:
    HashRehashTlb(const std::string &name, stats::StatGroup *parent,
                  const HashRehashParams &params);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool supports(PageSize size) const override;
    std::uint64_t numEntries() const override { return params_.entries; }
    unsigned numWays() const override { return params_.assoc; }

    /**
     * Without a predictor the probe order is fixed and every probed
     * VPN is constant across a 4KB page, so the probe sequence, the
     * outcome, and the (no-op) MRU rotate all repeat. Predictor
     * lookups train on every hit — never replayable.
     */
    bool
    replayable(const TlbLookup &result, VAddr vaddr) const override
    {
        (void)result;
        (void)vaddr;
        return !predictor_;
    }

    const SizePredictor *predictor() const { return predictor_.get(); }

  private:
    struct Entry
    {
        PageSize size;
        std::uint64_t vpn; ///< in the entry's own page-size units
        Asid asid;
        pt::Translation xlate;
        bool dirty;
    };

    HashRehashParams params_;
    std::uint64_t numSets_;
    /** Per-set ways in LRU order (front = MRU); each set is reserved
     *  to assoc + 1 at construction so the hot path never
     *  reallocates. */
    std::vector<std::vector<Entry>> sets_;
    std::unique_ptr<SizePredictor> predictor_;
    /** Reusable probe-order scratch (no per-lookup heap allocation). */
    std::vector<PageSize> probeOrder_;

    std::uint64_t
    setOf(VAddr vaddr, PageSize size) const
    {
        return vpnOf(vaddr, size) % numSets_;
    }

    /** Probe one set for one assumed size; returns the entry or null. */
    Entry *probe(VAddr vaddr, PageSize size);
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_HASH_REHASH_HH
