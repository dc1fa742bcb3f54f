/**
 * @file
 * Portable wide-word probe kernels for the hot scan loops.
 *
 * PR 8 turned every TLB/cache probe into a linear scan over a packed
 * `std::uint64_t` tag lane, but left the scan one word per iteration:
 * the autovectorizer cannot prove first-match-index semantics through
 * the early return and mostly emits scalar compare/branch loops. This
 * header widens the scan explicitly — 4 tags per compare on AVX2 —
 * while keeping the result *provably* identical to the scalar loop:
 *
 *   - Each vector compare produces a per-element mask; the mask is
 *     reduced with movemask so that bit k corresponds to element
 *     (i + k) of the lane. Extracting the lowest set bit
 *     (`std::countr_zero`) therefore yields the lowest matching lane
 *     index, i.e. exactly the index the scalar `for` loop would have
 *     returned first.
 *   - Ragged tails (n not a multiple of the vector width) finish with
 *     the scalar loop — no masked over-read of the lane is attempted.
 *   - `firstEqual`/`firstEqualAny` take a start offset so callers that
 *     re-confirm tag hits against a full predicate (TagLaneSet) can
 *     resume the scan mid-lane past a confirm-rejected collision.
 *
 * Kernel selection is compile-time (`__AVX2__` from the toolchain, see
 * MIXTLB_AVX2 in CMakeLists.txt; without it every kernel is the scalar
 * reference) with a process-wide runtime kill switch layered on top: the
 * `MIXTLB_FORCE_SCALAR` environment variable seeds an atomic flag
 * (re-readable via setForceScalar(), mirroring the L0 filter's
 * setL0FilterEnabled() toggle) that routes every kernel through the
 * pure-scalar reference path. Because the kernels are bit-exact, the
 * switch changes wall-clock time only — fig14 golden JSON is asserted
 * byte-identical across SIMD/forced-scalar in CI.
 *
 * This is the only file in the tree allowed to touch raw intrinsics
 * (mixcheck rule `simd`); everything else calls these wrappers.
 */

#ifndef MIXTLB_COMMON_SIMD_HH
#define MIXTLB_COMMON_SIMD_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "common/types.hh"

#if defined(__AVX2__)
#define MIXTLB_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace mixtlb::simd
{

/** Same sentinel as TagLaneSet::npos. */
inline constexpr std::size_t npos =
    std::numeric_limits<std::size_t>::max();

/** Widest candidate fan-out the vector kernels hoist (designs probe at
 *  most NumPageSizes = 3 windows per lookup). */
inline constexpr unsigned MaxHoistedCands = 4;

namespace detail
{

/** Process-wide kill switch. Seeded once from MIXTLB_FORCE_SCALAR
 *  (unset, empty, or "0" = off); flipped at runtime by tests and
 *  benches via setForceScalar(). Relaxed atomics: the flag only picks
 *  between two bit-exact kernels, so racing readers are harmless. */
inline std::atomic<bool> &
forceScalarFlag()
{
    static std::atomic<bool> flag{[] {
        const char *env = std::getenv("MIXTLB_FORCE_SCALAR");
        return env != nullptr && env[0] != '\0' &&
               !(env[0] == '0' && env[1] == '\0');
    }()};
    return flag;
}

} // namespace detail

inline bool
scalarForced()
{
    return detail::forceScalarFlag().load(std::memory_order_relaxed);
}

inline void
setForceScalar(bool on)
{
    detail::forceScalarFlag().store(on, std::memory_order_relaxed);
}

/** RAII guard: force the scalar kernels within a scope (differential
 *  tests), restoring the previous setting on exit. */
class ForceScalarGuard
{
  public:
    explicit ForceScalarGuard(bool on = true) : prev_(scalarForced())
    {
        setForceScalar(on);
    }
    ~ForceScalarGuard() { setForceScalar(prev_); }
    ForceScalarGuard(const ForceScalarGuard &) = delete;
    ForceScalarGuard &operator=(const ForceScalarGuard &) = delete;

  private:
    bool prev_;
};

/** Name of the kernel the translation unit was compiled with. */
constexpr const char *
compiledKernelName()
{
#if defined(MIXTLB_SIMD_AVX2)
    return "avx2";
#else
    return "scalar";
#endif
}

/** Kernel actually dispatched to right now (honours the kill switch). */
inline const char *
activeKernelName()
{
    return scalarForced() ? "scalar" : compiledKernelName();
}

/** Hint loads/stores of the line holding @p p (no-op off GNU/Clang). */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
}

inline void
prefetchWrite(void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 1, 3);
#else
    (void)p;
#endif
}

// ---------------------------------------------------------------------
// Scalar reference kernels. These define the semantics; every vector
// kernel below must return bit-identical results (asserted by the
// randomized differential tests in tests/test_properties.cc).
// ---------------------------------------------------------------------

// mixcheck: hot
inline std::size_t
firstEqualScalar(const std::uint64_t *lane, std::size_t n,
                 std::uint64_t tag, std::size_t start)
{
    for (std::size_t i = start; i < n; ++i) {
        if (lane[i] == tag)
            return i;
    }
    return npos;
}

/** Scalar any-of-candidates scan. The candidate values are hoisted
 *  into locals and the comparison short-circuits (the old TagLaneSet
 *  inner loop re-read cands[c] from memory and evaluated all ncands
 *  compares per way). */
// mixcheck: hot
inline std::size_t
firstEqualAnyScalar(const std::uint64_t *lane, std::size_t n,
                    const std::uint64_t *cands, unsigned ncands,
                    std::size_t start)
{
    switch (ncands) {
      case 0:
        return npos;
      case 1:
        return firstEqualScalar(lane, n, cands[0], start);
      case 2: {
        const std::uint64_t c0 = cands[0], c1 = cands[1];
        for (std::size_t i = start; i < n; ++i) {
            const std::uint64_t t = lane[i];
            if (t == c0 || t == c1)
                return i;
        }
        return npos;
      }
      case 3: {
        const std::uint64_t c0 = cands[0], c1 = cands[1];
        const std::uint64_t c2 = cands[2];
        for (std::size_t i = start; i < n; ++i) {
            const std::uint64_t t = lane[i];
            if (t == c0 || t == c1 || t == c2)
                return i;
        }
        return npos;
      }
      default:
        for (std::size_t i = start; i < n; ++i) {
            const std::uint64_t t = lane[i];
            for (unsigned c = 0; c < ncands; ++c) {
                if (t == cands[c])
                    return i;
            }
        }
        return npos;
    }
}

/** Scalar run-length of leading refs the L0 filter can replay: vaddr
 *  inside [lo, lo + 4KB) and, unless @p stores_ok, a load. */
// mixcheck: hot
inline std::size_t
l0RunLengthScalar(const MemRef *refs, std::size_t n, VAddr lo,
                  bool stores_ok, std::size_t start)
{
    std::size_t i = start;
    for (; i < n; ++i) {
        if (refs[i].vaddr - lo >= PageBytes4K)
            break;
        if (!stores_ok && refs[i].type != AccessType::Read)
            break;
    }
    return i;
}

// ---------------------------------------------------------------------
// Vector kernels. Exactness hinges on one property per kernel: the
// movemask reduction maps lane element (i + k) to mask bit f(k) with f
// strictly increasing, so the lowest set bit is the lowest matching
// index and `i + ctz(mask)` equals the scalar loop's first hit.
// ---------------------------------------------------------------------

#if defined(MIXTLB_SIMD_AVX2)

// mixcheck: hot
inline std::size_t
firstEqualVector(const std::uint64_t *lane, std::size_t n,
                 std::uint64_t tag, std::size_t i)
{
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(tag));
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lane + i));
        // movemask_pd bit k = sign bit of 64-bit element k, and cmpeq
        // writes all-ones per matching element: bit k set <=> lane
        // element (i + k) == tag.
        const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, needle))));
        if (m != 0)
            return i + static_cast<unsigned>(std::countr_zero(m));
    }
    return firstEqualScalar(lane, n, tag, i);
}

// mixcheck: hot
inline std::size_t
firstEqualAnyVector(const std::uint64_t *lane, std::size_t n,
                    const std::uint64_t *cands, unsigned ncands,
                    std::size_t i)
{
    if (ncands == 0)
        return npos;
    if (ncands > MaxHoistedCands)
        return firstEqualAnyScalar(lane, n, cands, ncands, i);
    __m256i needles[MaxHoistedCands];
    for (unsigned c = 0; c < ncands; ++c)
        needles[c] = _mm256_set1_epi64x(
            static_cast<long long>(cands[c]));
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lane + i));
        __m256i eq = _mm256_cmpeq_epi64(v, needles[0]);
        for (unsigned c = 1; c < ncands; ++c)
            eq = _mm256_or_si256(eq, _mm256_cmpeq_epi64(v, needles[c]));
        const unsigned m = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        if (m != 0)
            return i + static_cast<unsigned>(std::countr_zero(m));
    }
    return firstEqualAnyScalar(lane, n, cands, ncands, i);
}

// mixcheck: hot
inline std::size_t
l0RunLengthVector(const MemRef *refs, std::size_t n, VAddr lo,
                  bool stores_ok, std::size_t i)
{
    static_assert(sizeof(MemRef) == 16,
                  "l0RunLengthVector assumes {u64 vaddr, u8 type} refs");
    // AVX2 has no unsigned 64-bit compare; biasing both sides by 2^63
    // turns the unsigned `d < 4096` into a signed cmpgt.
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    const __m256i lo_v = _mm256_set1_epi64x(static_cast<long long>(lo));
    const __m256i limit_biased = _mm256_set1_epi64x(
        static_cast<long long>(PageBytes4K ^ 0x8000000000000000ull));
    const __m256i meta_mask = _mm256_set1_epi64x(0xFF);
    for (; i + 4 <= n; i += 4) {
        // Four 16-byte MemRefs = two 32-byte loads of [v, m, v, m];
        // gather the vaddr and meta 64-bit slots into element order
        // [r0, r1, r2, r3] so mask bit k is ref (i + k).
        const __m256i *p = reinterpret_cast<const __m256i *>(refs + i);
        const __m256i ab = _mm256_loadu_si256(p);
        const __m256i cd = _mm256_loadu_si256(p + 1);
        const __m256i va = _mm256_permute4x64_epi64(
            ab, _MM_SHUFFLE(2, 0, 2, 0));
        const __m256i vb = _mm256_permute4x64_epi64(
            cd, _MM_SHUFFLE(2, 0, 2, 0));
        const __m256i vaddrs =
            _mm256_permute2x128_si256(va, vb, 0x20);
        const __m256i d_biased = _mm256_xor_si256(
            _mm256_sub_epi64(vaddrs, lo_v), bias);
        __m256i ok = _mm256_cmpgt_epi64(limit_biased, d_biased);
        if (!stores_ok) {
            const __m256i ma = _mm256_permute4x64_epi64(
                ab, _MM_SHUFFLE(3, 1, 3, 1));
            const __m256i mb = _mm256_permute4x64_epi64(
                cd, _MM_SHUFFLE(3, 1, 3, 1));
            // Only the low byte of the meta slot is AccessType; the
            // rest is struct padding and must be masked off.
            const __m256i metas = _mm256_and_si256(
                _mm256_permute2x128_si256(ma, mb, 0x20), meta_mask);
            ok = _mm256_and_si256(
                ok, _mm256_cmpeq_epi64(metas, _mm256_setzero_si256()));
        }
        const unsigned okm = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(ok)));
        const unsigned stop = ~okm & 0xFu;
        if (stop != 0)
            return i + static_cast<unsigned>(std::countr_zero(stop));
    }
    return l0RunLengthScalar(refs, n, lo, stores_ok, i);
}

#endif

// ---------------------------------------------------------------------
// Public dispatchers. One relaxed atomic load per call decides between
// the compiled vector kernel and the scalar reference — stricter than
// the "re-read at batch boundaries" contract the L0 filter toggle
// uses, so flipping MIXTLB_FORCE_SCALAR mid-run takes effect on the
// very next probe.
// ---------------------------------------------------------------------

/**
 * Lowest index in [start, n) with lane[i] == tag, else npos.
 */
// mixcheck: hot
inline std::size_t
firstEqual(const std::uint64_t *lane, std::size_t n, std::uint64_t tag,
           std::size_t start = 0)
{
#if defined(MIXTLB_SIMD_AVX2)
    if (!scalarForced()) [[likely]]
        return firstEqualVector(lane, n, tag, start);
#endif
    return firstEqualScalar(lane, n, tag, start);
}

/**
 * Lowest index in [start, n) with lane[i] equal to *any* of the
 * @p ncands candidate tags, else npos.
 */
// mixcheck: hot
inline std::size_t
firstEqualAny(const std::uint64_t *lane, std::size_t n,
              const std::uint64_t *cands, unsigned ncands,
              std::size_t start = 0)
{
#if defined(MIXTLB_SIMD_AVX2)
    if (!scalarForced()) [[likely]]
        return firstEqualAnyVector(lane, n, cands, ncands, start);
#endif
    return firstEqualAnyScalar(lane, n, cands, ncands, start);
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
    // Random-access streams break the run at ref 0 or 1 almost every
    // call, where vector setup (broadcasts + permutes) costs more than
    // it saves; confirm one vector width scalar first so short runs pay
    // exactly the old per-ref filter test, and only sustained runs
    // enter the wide kernel.
    const std::size_t head = n < 4 ? n : 4;
    const std::size_t run = l0RunLengthScalar(refs, head, lo, stores_ok, 0);
    if (run < head || run == n)
        return run;
#if defined(MIXTLB_SIMD_AVX2)
    if (!scalarForced()) [[likely]]
        return l0RunLengthVector(refs, n, lo, stores_ok, run);
#endif
    return l0RunLengthScalar(refs, n, lo, stores_ok, run);
}

} // namespace mixtlb::simd

#endif // MIXTLB_COMMON_SIMD_HH
