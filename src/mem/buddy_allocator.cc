#include "buddy_allocator.hh"

#include <algorithm>
#include <bit>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::mem
{

namespace
{

/** One summary layer over @p below: bit w set iff below[w] != 0. */
std::vector<std::uint64_t>
summarize(const std::vector<std::uint64_t> &below)
{
    std::vector<std::uint64_t> above(divCeil(below.size(), 64), 0);
    for (std::size_t w = 0; w < below.size(); w++) {
        if (below[w] != 0)
            above[w >> 6] |= pow2(w & 63);
    }
    return above;
}

} // anonymous namespace

BuddyAllocator::Level::Level(std::uint64_t nbits)
    : nbits(nbits), count(nbits)
{
    // Every block is free: whole words of ones, then the ragged tail.
    std::vector<std::uint64_t> bits(
        std::max<std::uint64_t>(1, divCeil(nbits, 64)), ~0ULL);
    if (nbits % 64 != 0 || nbits == 0)
        bits.back() = pow2(nbits & 63) - 1;
    layers.push_back(std::move(bits));
    while (layers.back().size() > 1)
        layers.push_back(summarize(layers.back()));
}

bool
BuddyAllocator::Level::test(std::uint64_t i) const
{
    return i < nbits && ((layers[0][i >> 6] >> (i & 63)) & 1) != 0;
}

std::optional<std::uint64_t>
BuddyAllocator::Level::lowest() const
{
    if (layers.back()[0] == 0)
        return std::nullopt;
    std::uint64_t i = 0;
    for (std::size_t h = layers.size(); h-- > 0;)
        i = (i << 6) | std::countr_zero(layers[h][i]);
    return i;
}

void
BuddyAllocator::Level::assign(std::uint64_t lo, std::uint64_t n,
                              bool value)
{
    if (n < 64) {
        const std::uint64_t mask = shiftLeft(pow2(n) - 1, lo & 63);
        const std::uint64_t word = layers[0][lo >> 6];
        store(lo >> 6, value ? word | mask : word & ~mask);
        return;
    }
    // A block of 64 or more bits is a run of whole words.
    for (std::uint64_t w = lo >> 6; w < (lo + n) >> 6; w++)
        store(w, value ? ~0ULL : 0);
}

void
BuddyAllocator::Level::store(std::uint64_t w, std::uint64_t value)
{
    std::uint64_t &word = layers[0][w];
    count = count - std::popcount(word) + std::popcount(value);
    const bool nonzero = value != 0;
    const bool changed = (word != 0) != nonzero;
    word = value;
    // A word turning (non-)zero flips its summary bit, and so on up
    // while each summary word turns (non-)zero too.
    for (std::size_t h = 1; changed && h < layers.size(); h++) {
        std::uint64_t &sum = layers[h][w >> 6];
        const bool was = sum != 0;
        sum = nonzero ? sum | pow2(w & 63) : sum & ~pow2(w & 63);
        if (was == (sum != 0))
            break;
        w >>= 6;
    }
}

BuddyAllocator::BuddyAllocator(std::uint64_t total_frames)
    : totalFrames_(total_frames)
{
    panic_if(total_frames == 0, "empty physical memory");
    levels_.reserve(MaxOrder + 1);
    for (unsigned o = 0; o <= MaxOrder; o++)
        levels_.emplace_back(shiftRight(total_frames, o));
}

std::optional<Pfn>
BuddyAllocator::alloc(unsigned order)
{
    panic_if(order > MaxOrder, "alloc order %u too large", order);
    // The lowest all-free aligned block of this order: the same frames
    // a list-based buddy splits off the lowest block of any order >=
    // the requested one, which is what makes consecutive allocations
    // physically contiguous.
    auto index = levels_[order].lowest();
    if (!index)
        return std::nullopt;
    const Pfn pfn = shiftLeft(*index, order);
    mark(pfn, order, false);
    return pfn;
}

bool
BuddyAllocator::allocRegion(Pfn pfn, unsigned order)
{
    panic_if(order > MaxOrder, "allocRegion order %u too large", order);
    panic_if((pfn & (pow2(order) - 1)) != 0,
             "allocRegion misaligned pfn");
    if (!isRegionFree(pfn, order))
        return false;
    mark(pfn, order, false);
    return true;
}

void
BuddyAllocator::mark(Pfn pfn, unsigned order, bool free)
{
    for (unsigned o = 0; o <= order; o++)
        levels_[o].assign(shiftRight(pfn, o), pow2(order - o), free);
    // Re-derive each enclosing block from its halves (merging on free,
    // splitting on claim) until one comes out as it already was.
    for (unsigned o = order + 1; o <= MaxOrder; o++) {
        const std::uint64_t i = shiftRight(pfn, o);
        const bool all_free =
            levels_[o - 1].test(2 * i) && levels_[o - 1].test(2 * i + 1);
        if (levels_[o].test(i) == all_free)
            break;
        levels_[o].assign(i, 1, all_free);
    }
}

void
BuddyAllocator::free(Pfn pfn, unsigned order)
{
    panic_if(order > MaxOrder, "free order %u too large", order);
    panic_if((pfn & (pow2(order) - 1)) != 0, "free misaligned pfn");
    panic_if(pfn + pow2(order) > totalFrames_,
             "free of pfn 0x%llx past the %llu managed frames",
             (unsigned long long)pfn, (unsigned long long)totalFrames_);
    panic_if(isRegionFree(pfn, order), "double free of pfn 0x%llx",
             (unsigned long long)pfn);
    mark(pfn, order, true);
}

bool
BuddyAllocator::isRegionFree(Pfn pfn, unsigned order) const
{
    panic_if(order > MaxOrder, "isRegionFree order %u too large", order);
    panic_if((pfn & (pow2(order) - 1)) != 0,
             "isRegionFree misaligned pfn");
    return levels_[order].test(shiftRight(pfn, order));
}

std::optional<unsigned>
BuddyAllocator::largestFreeOrder() const
{
    for (unsigned o = MaxOrder + 1; o-- > 0;) {
        if (levels_[o].count > 0)
            return o;
    }
    return std::nullopt;
}

std::uint64_t
BuddyAllocator::freeBlocksAt(unsigned order) const
{
    panic_if(order > MaxOrder, "order %u too large", order);
    // Each free block one order up holds two free blocks here that are
    // not on this order's list.
    const std::uint64_t merged =
        order < MaxOrder ? 2 * levels_[order + 1].count : 0;
    return levels_[order].count - merged;
}

void
BuddyAllocator::audit(contracts::AuditReport &report) const
{
    for (unsigned o = 0; o <= MaxOrder; o++) {
        const Level &level = levels_[o];
        const auto &bits = level.layers[0];

        std::uint64_t count = 0;
        for (std::uint64_t word : bits)
            count += std::popcount(word);
        MIX_AUDIT_CHECK(report, count == level.count,
                        "order-%u bits hold %llu free blocks but the "
                        "count says %llu (alloc/free leaked or minted "
                        "frames)",
                        o, (unsigned long long)count,
                        (unsigned long long)level.count);

        for (std::size_t h = 1; h < level.layers.size(); h++) {
            MIX_AUDIT_CHECK(report,
                            summarize(level.layers[h - 1]) ==
                                level.layers[h],
                            "order-%u summary layer %zu disagrees with "
                            "the words below it",
                            o, h);
        }

        // The merge invariant: each bit is the AND of its two halves.
        for (std::uint64_t i = 0; o > 0 && i < level.nbits; i++) {
            const Level &halves = levels_[o - 1];
            const bool want = halves.test(2 * i) && halves.test(2 * i + 1);
            if (level.test(i) == want)
                continue;
            MIX_AUDIT_CHECK(report, false,
                            "order-%u block at pfn 0x%llx is marked %s "
                            "but its halves say %s",
                            o, (unsigned long long)shiftLeft(i, o),
                            want ? "allocated" : "free",
                            want ? "free" : "allocated");
            break;
        }
    }
    MIX_AUDIT_CHECK(report, freeFrames() <= totalFrames_,
                    "freeFrames %llu exceeds totalFrames %llu",
                    (unsigned long long)freeFrames(),
                    (unsigned long long)totalFrames_);
}

} // namespace mixtlb::mem
