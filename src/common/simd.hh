/**
 * @file
 * Probe kernels for the hot scan loops.
 *
 * The cache probe is a linear scan over a packed `std::uint64_t` tag
 * window, and the L0 filter scans a trace batch for the end of a
 * same-page run. The kernels here are those scans: plain first-match
 * loops.
 *
 * Every probe covers a short set (cache windows of at most 16 ways)
 * and the scan usually ends at the MRU slot, so a wide compare has
 * little to widen. An AVX2 leg was measured against these loops on
 * every perfbench workload and resolved no difference, so it was
 * retired (DESIGN.md section 13).
 *
 *   - `prefetchWrite` hints the next set or trace chunk; the L2/LLC
 *     set prefetch is the measured win of the probe work (DESIGN.md
 *     section 13).
 *
 * This is the only file in the tree allowed to touch raw intrinsics
 * (mixcheck rule `simd`): a future wide kernel goes here, behind the
 * same signatures, and must be bit-exact with the loops it replaces.
 */

#ifndef MIXTLB_COMMON_SIMD_HH
#define MIXTLB_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/types.hh"

namespace mixtlb::simd
{

/** "Not found" sentinel of the scans. */
inline constexpr std::size_t npos =
    std::numeric_limits<std::size_t>::max();

/** Name of the probe kernel every scan runs (reported by perfbench). */
constexpr const char *
activeKernelName()
{
    return "scalar";
}

/** Hint stores to the line holding @p p (no-op off GNU/Clang). */
inline void
prefetchWrite(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 1, 3);
#else
    (void)p;
#endif
}

/** Lowest index in [0, n) with lane[i] == tag, else npos. */
// mixcheck: hot
inline std::size_t
firstEqual(const std::uint64_t *lane, std::size_t n, std::uint64_t tag)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (lane[i] == tag)
            return i;
    }
    return npos;
}

/**
 * Number of leading refs in [0, n) the armed L0 filter can replay:
 * vaddr in [lo, lo + 4KB) and (stores_ok || a load). Returns the index
 * of the first ref that breaks the run (n if none does).
 */
// mixcheck: hot
inline std::size_t
l0RunLength(const MemRef *refs, std::size_t n, VAddr lo, bool stores_ok)
{
    std::size_t i = 0;
    for (; i < n; ++i) {
        if (refs[i].vaddr - lo >= PageBytes4K)
            break;
        if (!stores_ok && refs[i].type != AccessType::Read)
            break;
    }
    return i;
}

} // namespace mixtlb::simd

#endif // MIXTLB_COMMON_SIMD_HH
