/**
 * @file
 * A simulated process: virtual memory areas, lazy page-fault-driven
 * physical allocation, and the page-size policies the paper evaluates
 * (Sec. 7.1) — fixed 4KB, libhugetlbfs 2MB/1GB pools, and transparent
 * hugepage support (THS).
 */

#ifndef MIXTLB_OS_PROCESS_HH
#define MIXTLB_OS_PROCESS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/contracts.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/frame_table.hh"
#include "os/memory_manager.hh"
#include "pt/page_table.hh"

namespace mixtlb::os
{

/** The page-size policies of Sec. 7.1 (plus FreeBSD's reservations). */
enum class PagePolicy : std::uint8_t
{
    SmallOnly,   ///< force 4KB pages everywhere
    Huge2M,      ///< libhugetlbfs with a 2MB page pool
    Huge1G,      ///< libhugetlbfs with a 1GB page pool
    Thp,         ///< transparent hugepage support: 2MB when possible
    Reservation, ///< FreeBSD-style: reserve a 2MB frame on first touch,
                 ///< back 4KB pages from it, promote when fully built
};

const char *pagePolicyName(PagePolicy policy);

struct ProcessParams
{
    std::string name = "proc";
    PagePolicy policy = PagePolicy::Thp;
    /** THS: permit compaction when direct allocation fails. */
    bool thpDefrag = true;
    /** libhugetlbfs pool sizes, in superpages, reserved at "link time". */
    std::uint64_t pool2mPages = 0;
    std::uint64_t pool1gPages = 0;
    /** Bottom of the mmap region. */
    VAddr mmapBase = 1ULL << 32;
};

/** Outcome of touching a virtual address. */
enum class TouchResult : std::uint8_t
{
    Mapped,      ///< already backed; nothing happened
    Faulted,     ///< page fault serviced, now backed
    OutOfMemory, ///< no physical memory left to back the page
};

class Process : public MovableOwner
{
  public:
    Process(MemoryManager &mm, const ProcessParams &params,
            stats::StatGroup *parent);
    ~Process() override;

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /**
     * Reserve @p bytes of virtual address space (rounded up to 1GB
     * alignment so any page size can back it).
     */
    VAddr mmap(std::uint64_t bytes);

    /** Demand-fault @p vaddr if it is not yet backed. */
    TouchResult touch(VAddr vaddr, bool is_store = false);

    /** True if @p vaddr lies in a reserved VMA. */
    bool inVma(VAddr vaddr) const;

    pt::PageTable &pageTable() { return pageTable_; }
    const pt::PageTable &pageTable() const { return pageTable_; }

    MemoryManager &memoryManager() { return mm_; }

    /**
     * Register a TLB-shootdown callback, fired whenever an existing
     * translation changes (page migration, unmap).
     */
    void addInvalidateListener(
        std::function<void(VAddr, PageSize)> listener);

    /** Bytes currently backed by each page size. */
    std::uint64_t residentBytes(PageSize size) const;
    std::uint64_t residentBytes() const;

    // MovableOwner: compaction moved one of our small pages.
    void relocate(std::uint64_t tag, Pfn from, Pfn to) override;
    bool holdsMovable(std::uint64_t tag, Pfn pfn) const override;

    /**
     * Free up to @p want frames under memory pressure: abandon unused
     * reservation slots, drop cold 4KB pages from demoted regions,
     * demote resident superpages to unlock more, and release retired
     * page-table frames. Registered with the MemoryManager as this
     * process's reclaimer. Every translation change fires a precise,
     * page-sized shootdown.
     *
     * @return frames actually freed.
     */
    std::uint64_t reclaimMemory(std::uint64_t want);

    /**
     * Demote up to @p max resident superpages back to the next smaller
     * page size (2MB -> 512 x 4KB, 1GB -> 512 x 2MB), lowest virtual
     * address first. The physical frames do not move; each demotion
     * fires one superpage-sized shootdown. Used by the demote-storm
     * fault-injection site to exercise the hard invalidation cases.
     *
     * @return superpages actually demoted.
     */
    std::uint64_t demoteStorm(std::uint64_t max);

    /**
     * Periodic maintenance: when memory pressure has faded, re-promote
     * demoted 2MB regions that are still mostly mapped — in place if
     * all 512 frames are contiguous, else by khugepaged-style collapse
     * into a fresh block (holes allowed, like max_ptes_none). Failed
     * rounds back off exponentially, mirroring deferred compaction.
     */
    void maintain();

    /** 2MB regions currently demoted to 4KB pages. */
    std::uint64_t demotedRegions() const { return demoted2m_.size(); }

    stats::StatGroup &statGroup() { return stats_; }

    /**
     * Structural audit of the VM state: the page table's own radix
     * invariants, every leaf inside a VMA and backed by frames this
     * process owns, the per-size resident-byte counters matching a
     * fresh leaf walk, and the THS/reservation side tables (smallIn2m_,
     * subIn1g_, reservations_) agreeing with what is actually mapped.
     */
    void audit(contracts::AuditReport &report) const;

  private:
    struct Vma
    {
        VAddr base;
        std::uint64_t bytes;
    };

    MemoryManager &mm_;
    ProcessParams params_;
    pt::PageTable pageTable_;

    std::vector<Vma> vmas_;
    VAddr nextMmap_;

    /** hugetlbfs pools reserved at construction. */
    std::deque<Pfn> pool2m_;
    std::deque<Pfn> pool1g_;

    /**
     * Blocks we own, so teardown can free them: order + 1 at each
     * block's base frame, 0 elsewhere.
     */
    mem::FrameTable<std::uint8_t> ownedFrames_;

    /** 4KB mappings per 2MB-aligned region (blocks THS collapse). */
    std::unordered_map<VAddr, std::uint32_t> smallIn2m_;
    /** Sub-1GB mappings per 1GB-aligned region. */
    std::unordered_map<VAddr, std::uint32_t> subIn1g_;

    /** FreeBSD-style reservation state for one 2MB region. */
    struct Reservation
    {
        Pfn block;              ///< reserved 2MB frame block
        std::uint32_t touched;  ///< 4KB pages mapped so far
    };
    std::unordered_map<VAddr, Reservation> reservations_;

    std::vector<std::function<void(VAddr, PageSize)>> invalidateListeners_;

    /**
     * Resident page counts per size. Deliberately plain integers, not
     * stats: startMeasurement() resets the fault counters to scope
     * them to the measured window, but residency is a property of the
     * address space and must survive the reset (the structural audit
     * cross-checks it against the page-table tree).
     */
    std::uint64_t resident4k_ = 0;
    std::uint64_t resident2m_ = 0;
    std::uint64_t resident1g_ = 0;

    /**
     * Resident superpage leaves (region -> size), ordered so demotion
     * picks victims deterministically. Structural state like the
     * residency counters: survives resetStats().
     */
    std::map<VAddr, PageSize> residentSuper_;
    /** 2MB regions demoted to 4KB, awaiting re-promotion. */
    std::set<VAddr> demoted2m_;
    /** Exponential re-promotion backoff (mirrors deferred compaction). */
    unsigned repromoteDeferShift_ = 0;
    std::uint64_t repromoteDefer_ = 0;

    stats::StatGroup stats_;
    stats::Counter &faults4k_;
    stats::Counter &faults2m_;
    stats::Counter &faults1g_;
    stats::Counter &thpFallbacks_;
    stats::Counter &migrations_;
    stats::Counter &demotions_;
    stats::Counter &reclaims_;
    stats::Counter &repromotions_;
    stats::Counter &oomRetries_;
    stats::Counter &demoteRescues_;
    stats::Counter &compactionRescues_;

    TouchResult faultSmall(VAddr vaddr);
    TouchResult faultThp(VAddr vaddr);
    TouchResult faultPool2m(VAddr vaddr);
    TouchResult faultPool1g(VAddr vaddr);
    TouchResult faultReservation(VAddr vaddr);

    /** Replace a fully built reservation's 4KB PTEs with one 2MB PTE. */
    void promoteReservation(VAddr region, const Reservation &res);

    /** Demote the lowest-addressed resident superpage (2MB first). */
    bool demoteOne();
    /** Split the 2MB leaf at @p region into 512 4KB leaves. */
    bool demote2m(VAddr region);
    /** Split the 1GB leaf at @p region into 512 2MB leaves. */
    bool demote1g(VAddr region);
    /** Unmap one 4KB page and free its frame (with shootdown). */
    void dropSmallPage(VAddr vbase, Pfn pfn);
    /** Drop pages from demoted regions: cold, then clean, then any. */
    std::uint64_t reclaimColdPages(std::uint64_t want);
    /**
     * A demoted region whose last 4KB page was reclaimed: retire its
     * (now empty) leaf table and forget it, so the region can fault a
     * fresh superpage later and reclaim stops rescanning it.
     */
    void releaseEmptyRegion(VAddr region);
    /** Free a reservation's untouched slots; keep the mapped ones. */
    std::uint64_t abandonReservation(VAddr region);
    /** Rebuild the 2MB leaf at @p region if enough slots are mapped. */
    bool tryRepromote2m(VAddr region);

    /** Record the 2^order block at @p pfn as ours. */
    void own(Pfn pfn, unsigned order);
    /** Forget the 2^order block at @p pfn; false if it is not ours. */
    bool disown(Pfn pfn, unsigned order);
    /** Is the 2^order block at @p pfn ours? */
    bool owns(Pfn pfn, unsigned order) const;

    void fireInvalidate(VAddr vbase, PageSize size);
    void reservePools();
};

} // namespace mixtlb::os

#endif // MIXTLB_OS_PROCESS_HH
