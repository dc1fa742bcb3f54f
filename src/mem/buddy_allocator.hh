/**
 * @file
 * A binary buddy allocator over 4KB physical frames.
 *
 * This is the substrate from which the OS model's page-size distribution
 * emerges: 2MB superpages are order-9 blocks and 1GB superpages are
 * order-18 blocks. Allocation is lowest-address-first, which (like
 * Linux's free-list ordering plus ascending fault order) is the mechanism
 * that makes consecutively allocated superpages physically contiguous —
 * the property MIX TLB coalescing relies on (Sec. 7.1 of the paper).
 *
 * The free lists are not stored. Each order keeps one bit per aligned
 * block, set iff every frame of the block is free; a block is on the
 * order's (implicit) free list iff its bit is set and its parent's is
 * not. With eager merging that is exactly the maximal free aligned
 * blocks a list-based buddy system holds, so allocation picks the same
 * frames (DESIGN.md section 3).
 */

#ifndef MIXTLB_MEM_BUDDY_ALLOCATOR_HH
#define MIXTLB_MEM_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hh"
#include "common/types.hh"

namespace mixtlb::mem
{

/** Buddy order of a 2MB block (512 frames). */
constexpr unsigned Order2M = PageShift2M - PageShift4K;
/** Buddy order of a 1GB block (262144 frames). */
constexpr unsigned Order1G = PageShift1G - PageShift4K;

class BuddyAllocator
{
  public:
    /** Highest block order we track (1GB blocks). */
    static constexpr unsigned MaxOrder = Order1G;

    /**
     * Manage @p total_frames 4KB frames, all initially free.
     * The frame count need not be a power of two.
     */
    explicit BuddyAllocator(std::uint64_t total_frames);

    /**
     * Allocate a naturally aligned block of 2^order frames at the lowest
     * available address.
     *
     * @return the first frame number, or nullopt if no block exists.
     */
    std::optional<Pfn> alloc(unsigned order);

    /**
     * Claim the specific (naturally aligned) block starting at @p pfn if
     * every frame in it is currently free.
     *
     * @retval true the block was free and is now allocated.
     */
    bool allocRegion(Pfn pfn, unsigned order);

    /** Return a previously allocated block; panics if any of it is free. */
    void free(Pfn pfn, unsigned order);

    /** True if the aligned block at @p pfn is entirely free. */
    bool isRegionFree(Pfn pfn, unsigned order) const;

    /** Total frames currently free. */
    std::uint64_t freeFrames() const { return levels_[0].count; }

    /** Total frames managed. */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** Largest order with at least one free block, or nullopt if full. */
    std::optional<unsigned> largestFreeOrder() const;

    /** Number of free blocks at exactly @p order. */
    std::uint64_t freeBlocksAt(unsigned order) const;

    /**
     * Structural audit: every level's bit count and summary words match
     * its bits, every bit above order 0 is the AND of its two halves
     * (the merge invariant), no frame past the managed range is free,
     * and freeFrames() never exceeds totalFrames().
     */
    void audit(contracts::AuditReport &report) const;

  private:
    /** Test-only backdoor for the corruption-injection audit tests. */
    friend struct BuddyTestAccess;

    /**
     * One order's all-free bits. layers[0] holds bit i for the block at
     * pfn i << order; layers[h + 1] holds one bit per word of
     * layers[h], set iff that word is non-zero, up to a one-word top,
     * so the lowest set bit is a walk down ceil(log64(n)) words.
     */
    struct Level
    {
        explicit Level(std::uint64_t nbits);

        /** Valid bits in layers[0]; the rest stay clear. */
        std::uint64_t nbits;
        /** Set bits in layers[0]. */
        std::uint64_t count;
        std::vector<std::vector<std::uint64_t>> layers;

        bool test(std::uint64_t i) const;
        /** Lowest set bit, or nullopt if none. */
        std::optional<std::uint64_t> lowest() const;
        /**
         * Set or clear the @p n bits from @p lo: @p n is a power of
         * two and @p lo a multiple of it.
         */
        void assign(std::uint64_t lo, std::uint64_t n, bool value);
        /** Write layers[0] word @p w, keeping count and summary. */
        void store(std::uint64_t w, std::uint64_t value);
    };

    std::uint64_t totalFrames_;
    /** levels_[o] covers the order-o blocks. */
    std::vector<Level> levels_;

    /** Mark the block at @p pfn free or allocated in every level. */
    void mark(Pfn pfn, unsigned order, bool free);
};

} // namespace mixtlb::mem

#endif // MIXTLB_MEM_BUDDY_ALLOCATOR_HH
