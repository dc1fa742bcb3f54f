/**
 * @file
 * Simulated physical memory: buddy allocation, per-frame metadata, and
 * word-granularity backing store for page-table frames.
 *
 * Only frames that are actually written (page-table frames) allocate
 * host storage, so multi-GB simulated memories stay cheap to model.
 */

#ifndef MIXTLB_MEM_PHYS_MEM_HH
#define MIXTLB_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/buddy_allocator.hh"
#include "mem/frame_table.hh"

namespace mixtlb::mem
{

/** What a physical frame is being used for. */
enum class FrameUse : std::uint8_t
{
    Free = 0,      ///< not allocated
    PageTable,     ///< holds page-table entries (not movable)
    Pinned,        ///< pinned by memhog or the hypervisor (not movable)
    AppSmall,      ///< backs an application 4KB page (movable)
    AppHuge,       ///< part of an application superpage (not split)
};

/**
 * Simulated physical memory for one machine (or one nesting level of a
 * virtualized machine).
 */
class PhysMem
{
  public:
    explicit PhysMem(std::uint64_t bytes);

    BuddyAllocator &buddy() { return buddy_; }
    const BuddyAllocator &buddy() const { return buddy_; }

    std::uint64_t sizeBytes() const { return bytes_; }
    std::uint64_t totalFrames() const { return buddy_.totalFrames(); }

    /**
     * Allocate 2^order frames and tag them with @p use.
     * @return base frame, or nullopt when memory is exhausted.
     */
    std::optional<Pfn> allocFrames(unsigned order, FrameUse use);

    /** Claim a specific free region (used by compaction). */
    bool allocFramesAt(Pfn pfn, unsigned order, FrameUse use);

    /** Free 2^order frames starting at @p pfn. */
    void freeFrames(Pfn pfn, unsigned order);

    /**
     * Change the usage tag of 2^order already-allocated frames. Used by
     * compaction when ownership of frames transfers without a buddy
     * free/alloc round trip.
     */
    void retagFrames(Pfn pfn, unsigned order, FrameUse use);

    /** Per-frame usage tag. */
    FrameUse frameUse(Pfn pfn) const;

    /** Read a 64-bit word at physical address @p paddr (8-aligned). */
    std::uint64_t read64(PAddr paddr) const;

    /** Write a 64-bit word at physical address @p paddr (8-aligned). */
    void write64(PAddr paddr, std::uint64_t value);

    /**
     * Structural audit: the buddy allocator's own invariants, plus the
     * cross-check that frame-usage tags and the buddy agree (a frame
     * is tagged Free iff the buddy holds it free).
     */
    void audit(contracts::AuditReport &report) const;

  private:
    static constexpr unsigned WordsPerFrame = PageBytes4K / 8;
    using FrameData = std::array<std::uint64_t, WordsPerFrame>;

    std::uint64_t bytes_;
    BuddyAllocator buddy_;
    std::vector<FrameUse> frameUse_;
    /** Sparse backing store: a frame's words, once first written. */
    FrameTable<std::unique_ptr<FrameData>> data_;

    void tagFrames(Pfn pfn, unsigned order, FrameUse use);
};

} // namespace mixtlb::mem

#endif // MIXTLB_MEM_PHYS_MEM_HH
