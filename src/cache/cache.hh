/**
 * @file
 * A functional set-associative cache with LRU replacement.
 *
 * Used to cost page-table-walk memory references (and, optionally, data
 * references) the way the paper's functional simulator does (Sec. 6.2).
 * Only tags are modelled; data never moves.
 */

#ifndef MIXTLB_CACHE_CACHE_HH
#define MIXTLB_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mixtlb::cache
{

struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = CacheLineBytes;
    Cycles hitLatency = 4;
};

class Cache
{
  public:
    Cache(const CacheParams &params, stats::StatGroup *parent);

    /**
     * Look up @p paddr; on a miss the line is installed (evicting LRU).
     * @retval true on hit.
     */
    bool access(PAddr paddr, bool write);

    /** Probe without updating state or statistics. */
    bool contains(PAddr paddr) const;

    /**
     * Hint the host to pull this address's set window into its own
     * cache. Issued for the outer levels before the L1 probe starts,
     * it overlaps the three otherwise-serial tag-window loads of an
     * L1→L2→LLC miss chain. No modeled effect.
     */
    void
    prefetchSet(PAddr paddr) const
    {
        const std::uint64_t set = setOf(tagOf(paddr));
        simd::prefetchWrite(tags_.data() + set * params_.assoc);
    }

    /** Drop every cached line. */
    void flush();

    Cycles hitLatency() const { return params_.hitLatency; }
    const CacheParams &params() const { return params_; }

    std::uint64_t numSets() const { return numSets_; }

  private:
    CacheParams params_;
    std::uint64_t numSets_;
    /** numSets_ - 1 when numSets_ is a power of two, else 0. */
    std::uint64_t setMask_;
    unsigned lineShift_;
    bool setsPow2_;

    /**
     * Flat tag store: set s owns the window
     * tags_[s * assoc, s * assoc + fill_[s]) in LRU order (front =
     * MRU). Same ordering semantics as a per-set list, laid out
     * contiguously so the probe scan and MRU shift stay within one or
     * two cache lines (assoc <= 16) instead of chasing list nodes —
     * and within one region, so random streams touch half the host
     * lines a tags-plus-recency-stamps split would.
     */
    std::vector<std::uint64_t> tags_;
    /** Live entries per set. */
    std::vector<std::uint32_t> fill_;

    stats::StatGroup stats_;
    stats::Counter &hits_;
    stats::Counter &misses_;

    std::uint64_t
    tagOf(PAddr paddr) const
    {
        // lineShift_ = floorLog2(lineBytes) <= 63; mask keeps the
        // shift defined even if a bad config slips through.
        return paddr >> (lineShift_ & 63);
    }
    std::uint64_t
    setOf(std::uint64_t tag) const
    {
        // Every standard geometry has a power-of-two set count; the
        // modulo fall-back keeps odd configs (e.g. 24 MiB LLCs) exact.
        return setsPow2_ ? (tag & setMask_) : (tag % numSets_);
    }
};

/** Which level of the hierarchy serviced an access. */
enum class HitLevel : std::uint8_t { L1 = 0, L2, LLC, Memory };

struct HierarchyParams
{
    CacheParams l1{"l1d", 32 * 1024, 8, CacheLineBytes, 4};
    CacheParams l2{"l2", 256 * 1024, 8, CacheLineBytes, 12};
    CacheParams llc{"llc", 24ULL * 1024 * 1024, 16, CacheLineBytes, 40};
    Cycles memLatency = 200;
};

/**
 * A three-level inclusive hierarchy. An access probes L1→L2→LLC and on
 * a full miss installs the line at every level.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const HierarchyParams &params, stats::StatGroup *parent);

    /** Access @p paddr, returning the total latency. */
    Cycles access(PAddr paddr, bool write);

    /** Which level would service @p paddr, also performing the access. */
    HitLevel accessLevel(PAddr paddr, bool write);

    /** Latency of a hit at @p level. */
    Cycles
    levelLatency(HitLevel level) const
    {
        return latency_[static_cast<unsigned>(level) & 3];
    }

    void flush();

    stats::StatGroup &statGroup() { return stats_; }

  private:
    HierarchyParams params_;
    stats::StatGroup stats_;
    Cache l1_;
    Cache l2_;
    Cache llc_;
    /** Per-level hit latency indexed by HitLevel, so the hot path maps
     *  level to cycles with one load instead of a switch. */
    Cycles latency_[4];
    stats::Counter &memAccesses_;
};

} // namespace mixtlb::cache

#endif // MIXTLB_CACHE_CACHE_HH
