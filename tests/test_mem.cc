/**
 * @file
 * Unit and property tests for src/mem: the buddy allocator, checked
 * against a list-based spec, and physical memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/random.hh"
#include "mem/buddy_allocator.hh"
#include "mem/frame_table.hh"
#include "mem/phys_mem.hh"

using namespace mixtlb;
using namespace mixtlb::mem;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;
constexpr unsigned MaxOrder = BuddyAllocator::MaxOrder;

/**
 * The spec BuddyAllocator must match: a list-based buddy system with
 * one ordered std::set of free blocks per order, seeded with the
 * maximal aligned blocks, allocating from the lowest block on any list
 * of sufficient order, carving claimed regions out of whatever blocks
 * cover them, and merging eagerly on free.
 */
class ListBuddy
{
  public:
    explicit ListBuddy(std::uint64_t total_frames)
        : lists_(MaxOrder + 1)
    {
        Pfn pfn = 0;
        while (pfn < total_frames) {
            unsigned order = MaxOrder;
            while (order > 0 && ((pfn & (pow2(order) - 1)) != 0 ||
                                 pfn + pow2(order) > total_frames)) {
                order--;
            }
            lists_[order].insert(pfn);
            pfn += pow2(order);
        }
        freeFrames_ = total_frames;
    }

    std::optional<Pfn>
    alloc(unsigned order)
    {
        std::optional<std::pair<Pfn, unsigned>> best;
        for (unsigned o = order; o <= MaxOrder; o++) {
            if (!lists_[o].empty() &&
                (!best || *lists_[o].begin() < best->first)) {
                best = {*lists_[o].begin(), o};
            }
        }
        if (!best)
            return std::nullopt;
        auto [pfn, o] = *best;
        lists_[o].erase(pfn);
        // Split down, keeping the low half.
        for (; o > order; o--)
            lists_[o - 1].insert(pfn + pow2(o - 1));
        freeFrames_ -= pow2(order);
        return pfn;
    }

    bool
    isRegionFree(Pfn pfn, unsigned order) const
    {
        const std::uint64_t lo = pfn, hi = pfn + pow2(order);
        std::uint64_t covered = 0;
        for (unsigned o = 0; o <= MaxOrder; o++) {
            auto it = lists_[o].lower_bound(
                lo >= pow2(o) ? lo - pow2(o) + 1 : 0);
            for (; it != lists_[o].end() && *it < hi; ++it) {
                covered += std::min(*it + pow2(o), hi) - std::max(*it, lo);
            }
        }
        return covered == hi - lo;
    }

    bool
    allocRegion(Pfn pfn, unsigned order)
    {
        if (!isRegionFree(pfn, order))
            return false;
        const std::uint64_t hi = pfn + pow2(order);
        for (unsigned o = 0; o <= MaxOrder; o++) {
            auto &list = lists_[o];
            if (o <= order) {
                // Aligned blocks no larger than the region lie inside it.
                list.erase(list.lower_bound(pfn), list.lower_bound(hi));
                continue;
            }
            // At most one larger block contains the region.
            auto it = list.upper_bound(pfn);
            if (it == list.begin() || *std::prev(it) + pow2(o) <= pfn)
                continue;
            Pfn cur = *--it;
            list.erase(it);
            // Split it down, giving back the halves beside the region.
            while (o-- > order) {
                const Pfn high = cur + pow2(o);
                if (pfn >= high) {
                    lists_[o].insert(cur);
                    cur = high;
                } else {
                    lists_[o].insert(high);
                }
            }
            break;
        }
        freeFrames_ -= pow2(order);
        return true;
    }

    void
    free(Pfn pfn, unsigned order)
    {
        freeFrames_ += pow2(order);
        for (; order < MaxOrder; order++) {
            const Pfn buddy = pfn ^ pow2(order);
            if (lists_[order].erase(buddy) == 0)
                break;
            pfn &= buddy;
        }
        lists_[order].insert(pfn);
    }

    std::uint64_t freeFrames() const { return freeFrames_; }

    std::optional<unsigned>
    largestFreeOrder() const
    {
        for (unsigned o = MaxOrder + 1; o-- > 0;) {
            if (!lists_[o].empty())
                return o;
        }
        return std::nullopt;
    }

    std::uint64_t
    freeBlocksAt(unsigned order) const
    {
        return lists_[order].size();
    }

  private:
    std::vector<std::set<Pfn>> lists_;
    std::uint64_t freeFrames_ = 0;
};

} // anonymous namespace

TEST(Buddy, FreshAllocatorIsFullyFree)
{
    BuddyAllocator buddy(1 << 20);
    EXPECT_EQ(buddy.freeFrames(), 1u << 20);
    EXPECT_EQ(buddy.totalFrames(), 1u << 20);
    ASSERT_TRUE(buddy.largestFreeOrder().has_value());
    EXPECT_EQ(*buddy.largestFreeOrder(), BuddyAllocator::MaxOrder);
}

TEST(Buddy, LowestAddressFirst)
{
    BuddyAllocator buddy(1 << 20);
    auto a = buddy.alloc(0);
    auto b = buddy.alloc(0);
    auto c = buddy.alloc(Order2M);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(*a, 0u);
    EXPECT_EQ(*b, 1u);
    // The order-9 block skips to the next aligned free region.
    EXPECT_EQ(*c % (1u << Order2M), 0u);
    EXPECT_GT(*c, *b);
}

TEST(Buddy, ConsecutiveSuperpageAllocationsAreContiguous)
{
    // This is the allocator property the whole paper leans on.
    BuddyAllocator buddy(4 * GiB >> PageShift4K);
    std::optional<Pfn> prev;
    for (int i = 0; i < 64; i++) {
        auto pfn = buddy.alloc(Order2M);
        ASSERT_TRUE(pfn.has_value());
        if (prev) {
            EXPECT_EQ(*pfn, *prev + (1u << Order2M));
        }
        prev = pfn;
    }
}

TEST(Buddy, LowestFreeFrameSkipsAFullGigabyte)
{
    // A whole 1GB of allocated frames empties every summary word over
    // it, so the find-first-set walk must go round them.
    BuddyAllocator buddy((2ULL << 18) + 5);
    ASSERT_EQ(buddy.alloc(BuddyAllocator::MaxOrder), Pfn{0});
    EXPECT_EQ(buddy.alloc(0), Pfn{1} << 18);
    buddy.free(0, BuddyAllocator::MaxOrder);
    EXPECT_EQ(buddy.alloc(0), Pfn{0});
}

TEST(Buddy, AlignmentInvariant)
{
    BuddyAllocator buddy(1 << 20);
    buddy.alloc(0); // misalign the low region
    for (unsigned order : {3u, 9u, 12u}) {
        auto pfn = buddy.alloc(order);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(*pfn & ((1ULL << order) - 1), 0u) << "order " << order;
    }
}

TEST(Buddy, FreeAndMergeRestoresLargestOrder)
{
    BuddyAllocator buddy(1 << 18); // exactly one 1GB block
    std::vector<Pfn> frames;
    for (int i = 0; i < 1024; i++) {
        auto pfn = buddy.alloc(0);
        ASSERT_TRUE(pfn.has_value());
        frames.push_back(*pfn);
    }
    EXPECT_LT(*buddy.largestFreeOrder(), BuddyAllocator::MaxOrder);
    for (Pfn pfn : frames)
        buddy.free(pfn, 0);
    EXPECT_EQ(buddy.freeFrames(), 1u << 18);
    EXPECT_EQ(*buddy.largestFreeOrder(), BuddyAllocator::MaxOrder);
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator buddy(16);
    for (int i = 0; i < 16; i++)
        ASSERT_TRUE(buddy.alloc(0).has_value());
    EXPECT_FALSE(buddy.alloc(0).has_value());
    EXPECT_EQ(buddy.freeFrames(), 0u);
    EXPECT_FALSE(buddy.largestFreeOrder().has_value());
}

TEST(Buddy, NoOverlappingAllocations)
{
    BuddyAllocator buddy(1 << 16);
    Rng rng(99);
    std::set<Pfn> owned;
    std::vector<std::pair<Pfn, unsigned>> blocks;
    for (int iter = 0; iter < 2000; iter++) {
        if (blocks.empty() || rng.chance(0.6)) {
            unsigned order = rng.nextBounded(6);
            auto pfn = buddy.alloc(order);
            if (!pfn)
                continue;
            for (std::uint64_t i = 0; i < (1ULL << order); i++) {
                auto [it, ins] = owned.insert(*pfn + i);
                ASSERT_TRUE(ins) << "frame allocated twice";
            }
            blocks.emplace_back(*pfn, order);
        } else {
            auto idx = rng.nextBounded(blocks.size());
            auto [pfn, order] = blocks[idx];
            blocks.erase(blocks.begin() + idx);
            for (std::uint64_t i = 0; i < (1ULL << order); i++)
                owned.erase(pfn + i);
            buddy.free(pfn, order);
        }
        ASSERT_EQ(buddy.freeFrames(), (1u << 16) - owned.size());
    }
}

TEST(Buddy, AllocRegionClaimsExactBlock)
{
    BuddyAllocator buddy(1 << 12);
    EXPECT_TRUE(buddy.isRegionFree(512, Order2M));
    EXPECT_TRUE(buddy.allocRegion(512, Order2M));
    EXPECT_FALSE(buddy.isRegionFree(512, Order2M));
    EXPECT_FALSE(buddy.allocRegion(512, Order2M));
    // Frames outside the claimed block still allocatable.
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 0u);
    buddy.free(512, Order2M);
    EXPECT_TRUE(buddy.isRegionFree(512, Order2M));
}

TEST(Buddy, AllocRegionFailsWhenPartiallyUsed)
{
    BuddyAllocator buddy(1 << 12);
    auto pfn = buddy.alloc(0); // frame 0
    ASSERT_TRUE(pfn.has_value());
    EXPECT_FALSE(buddy.allocRegion(0, Order2M));
    EXPECT_TRUE(buddy.allocRegion(512, Order2M));
}

TEST(Buddy, AllocRegionMidSplitPreservesAccounting)
{
    BuddyAllocator buddy(1 << 14);
    std::uint64_t before = buddy.freeFrames();
    ASSERT_TRUE(buddy.allocRegion(1024, Order2M));
    EXPECT_EQ(buddy.freeFrames(), before - 512);
    // Everything around the claimed block is still allocatable frame by
    // frame.
    for (int i = 0; i < 1024; i++) {
        auto pfn = buddy.alloc(0);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_LT(*pfn, 1024u);
    }
    auto next = buddy.alloc(0);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, 1536u);
}

TEST(BuddyDeathTest, MisalignedFreePanics)
{
    BuddyAllocator buddy(1 << 12);
    EXPECT_DEATH(buddy.free(1, Order2M), "misaligned");
}

TEST(BuddyDeathTest, DoubleFreeAfterMergePanics)
{
    BuddyAllocator buddy(1024);
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn.has_value());
    buddy.free(*pfn, 0);
    // The frame has merged back into a larger free block; freeing it
    // again must still be caught.
    EXPECT_DEATH(buddy.free(*pfn, 0), "double free");
}

TEST(BuddySpec, MatchesListBuddyOnRandomStreams)
{
    // Frame counts that are not powers of two, the last spanning three
    // 1GB blocks plus a ragged tail.
    const std::uint64_t frame_counts[] = {
        1, 1000, 4097, (1ULL << 18) + 1, 3 * (1ULL << 18) + 12345};
    for (std::uint64_t frames : frame_counts) {
        SCOPED_TRACE(frames);
        BuddyAllocator buddy(frames);
        ListBuddy spec(frames);
        Rng rng(frames);
        std::vector<std::pair<Pfn, unsigned>> owned;
        for (int step = 0; step < 4000; step++) {
            SCOPED_TRACE(step);
            // Half small orders, so memory fragments, with every
            // order up to 1GB in the mix.
            const unsigned order =
                rng.chance(0.5) ? rng.nextBounded(4)
                                : rng.nextBounded(BuddyAllocator::MaxOrder + 1);
            // Alloc-heavy phases fill memory up, free-heavy ones merge
            // it back.
            const double fill = (step / 500) % 2 == 0 ? 0.6 : 0.25;
            const double op = rng.nextDouble();
            if (op < fill) {
                auto got = buddy.alloc(order);
                ASSERT_EQ(got, spec.alloc(order));
                if (got)
                    owned.emplace_back(*got, order);
            } else if (op < fill + 0.15) {
                // Any aligned block, including ones past the end.
                const Pfn pfn = rng.nextBounded((frames >> order) + 2)
                                << order;
                ASSERT_EQ(buddy.isRegionFree(pfn, order),
                          spec.isRegionFree(pfn, order));
                const bool got = buddy.allocRegion(pfn, order);
                ASSERT_EQ(got, spec.allocRegion(pfn, order));
                if (got)
                    owned.emplace_back(pfn, order);
            } else if (!owned.empty()) {
                // Free a random block whole or one piece of it, as
                // memhog and demotion free single frames of larger
                // allocations.
                const std::size_t idx = rng.nextBounded(owned.size());
                auto [pfn, o] = owned[idx];
                owned[idx] = owned.back();
                owned.pop_back();
                while (o > 0 && rng.chance(0.5)) {
                    o--;
                    Pfn keep = pfn + (1ULL << o);
                    if (rng.chance(0.5))
                        std::swap(pfn, keep);
                    owned.emplace_back(keep, o);
                }
                buddy.free(pfn, o);
                spec.free(pfn, o);
            }
            ASSERT_EQ(buddy.freeFrames(), spec.freeFrames());
            ASSERT_EQ(buddy.largestFreeOrder(), spec.largestFreeOrder());
            for (unsigned o = 0; o <= BuddyAllocator::MaxOrder; o++) {
                ASSERT_EQ(buddy.freeBlocksAt(o), spec.freeBlocksAt(o))
                    << "order " << o;
            }
        }
    }
}

TEST(FrameTableSpec, MatchesHashMapOnRandomStreams)
{
    // One frame, one frame past a chunk, and a 64GB machine's 16M
    // frames (whose directory alone is 32768 chunk pointers).
    constexpr std::uint64_t Chunk = FrameTable<std::uint64_t>::ChunkFrames;
    const std::uint64_t frame_counts[] = {1, Chunk + 1, 1ULL << 24};
    for (std::uint64_t frames : frame_counts) {
        SCOPED_TRACE(frames);
        FrameTable<std::uint64_t> table(frames);
        std::unordered_map<Pfn, std::uint64_t> spec;
        std::unordered_set<std::uint64_t> written_chunks;
        Rng rng(frames);
        // Most pfns land next to a chunk edge (or the table's ends),
        // so a large table stays cheap to compare in full each step.
        std::vector<Pfn> anchors = {0, Chunk, frames - 1, frames};
        for (int i = 0; i < 6; i++)
            anchors.push_back(rng.nextBounded(frames / Chunk + 1) * Chunk);
        auto pick = [&] {
            if (rng.chance(0.05))
                return rng.nextBounded(frames + 2);
            const Pfn anchor = anchors[rng.nextBounded(anchors.size())];
            const Pfn pfn = anchor + rng.nextBounded(5);
            return pfn < 2 ? pfn : pfn - 2;
        };
        for (int step = 0; step < 1500; step++) {
            SCOPED_TRACE(step);
            const double op = rng.nextDouble();
            const Pfn pfn = pick();
            if (op < 0.45) {
                if (pfn >= frames)
                    continue;
                const std::uint64_t value = 1 + rng.nextBounded(1000);
                table.at(pfn) = value;
                spec[pfn] = value;
                written_chunks.insert(pfn / Chunk);
            } else if (op < 0.7) {
                const std::uint64_t n = 1 + rng.nextBounded(2 * Chunk);
                const std::uint64_t end = std::min(pfn + n, frames);
                if (pfn >= end)
                    continue;
                table.clear(pfn, end - pfn);
                for (Pfn p = pfn; p < end; p++)
                    spec.erase(p);
            } else {
                const std::uint64_t *got = table.find(pfn);
                auto it = spec.find(pfn);
                if (it == spec.end())
                    ASSERT_TRUE(got == nullptr || *got == 0);
                else
                    ASSERT_TRUE(got != nullptr && *got == it->second);
            }
            // Chunks come from writes alone, never from lookups.
            ASSERT_EQ(table.chunksAllocated(), written_chunks.size());
            std::vector<std::pair<Pfn, std::uint64_t>> want(spec.begin(),
                                                            spec.end());
            std::sort(want.begin(), want.end());
            std::vector<std::pair<Pfn, std::uint64_t>> got;
            table.forEach([&](Pfn p, std::uint64_t value) {
                got.emplace_back(p, value);
            });
            ASSERT_EQ(got, want); // contents, in ascending pfn order
        }
    }
}

TEST(PhysMem, FreedPageTableFrameInsideAGigabyteReadsZero)
{
    PhysMem mem(2 * GiB);
    auto block = mem.allocFrames(Order1G, FrameUse::PageTable);
    ASSERT_TRUE(block.has_value());
    const Pfn pfn = *block + 3 * Frames2M + 7;
    const PAddr addr = (pfn << PageShift4K) + 16;
    mem.write64(addr, 0x1234);
    ASSERT_EQ(mem.read64(addr), 0x1234u);
    mem.freeFrames(*block, Order1G);
    ASSERT_TRUE(mem.allocFramesAt(pfn, 0, FrameUse::PageTable));
    EXPECT_EQ(mem.read64(addr), 0u);
}

TEST(PhysMem, AllocTagAndFree)
{
    PhysMem mem(64 * MiB);
    auto pfn = mem.allocFrames(Order2M, FrameUse::AppHuge);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(mem.frameUse(*pfn), FrameUse::AppHuge);
    EXPECT_EQ(mem.frameUse(*pfn + 511), FrameUse::AppHuge);
    mem.freeFrames(*pfn, Order2M);
    EXPECT_EQ(mem.frameUse(*pfn), FrameUse::Free);
}

TEST(PhysMem, ReadWriteWords)
{
    PhysMem mem(16 * MiB);
    auto pfn = mem.allocFrames(0, FrameUse::PageTable);
    ASSERT_TRUE(pfn.has_value());
    PAddr base = *pfn << PageShift4K;
    EXPECT_EQ(mem.read64(base), 0u);
    mem.write64(base + 8, 0xdeadbeefcafeULL);
    EXPECT_EQ(mem.read64(base + 8), 0xdeadbeefcafeULL);
    EXPECT_EQ(mem.read64(base), 0u);
    // Freeing wipes backing data.
    mem.freeFrames(*pfn, 0);
    EXPECT_EQ(mem.read64(base + 8), 0u);
}

TEST(PhysMemDeathTest, UnalignedAccessPanics)
{
    PhysMem mem(16 * MiB);
    EXPECT_DEATH(mem.read64(3), "unaligned");
}
