#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace mixtlb::cache
{

Cache::Cache(const CacheParams &params, stats::StatGroup *parent)
    : params_(params),
      stats_(params.name, parent),
      hits_(stats_.addCounter("hits", "cache hits")),
      misses_(stats_.addCounter("misses", "cache misses"))
{
    fatal_if(!isPowerOf2(params.lineBytes), "line size not a power of 2");
    fatal_if(params.assoc == 0, "zero associativity");
    std::uint64_t lines = params.sizeBytes / params.lineBytes;
    fatal_if(lines == 0 || lines % params.assoc != 0,
             "cache geometry does not divide evenly");
    numSets_ = lines / params.assoc;
    setsPow2_ = isPowerOf2(numSets_);
    setMask_ = setsPow2_ ? numSets_ - 1 : 0;
    lineShift_ = floorLog2(params.lineBytes);
    tags_.resize(numSets_ * params.assoc);
    fill_.assign(numSets_, 0);
    stats_.addFormula("miss_rate", "miss fraction", [this] {
        const auto total = static_cast<double>(hits_.value() +
                                               misses_.value());
        return total > 0 ? static_cast<double>(misses_.value()) / total
                         : 0.0;
    });
}

// mixcheck: hot
bool
Cache::access(PAddr paddr, bool write)
{
    (void)write; // functional model: reads and writes behave alike
    const std::uint64_t tag = tagOf(paddr);
    const std::uint64_t set = setOf(tag);
    std::uint64_t *w = tags_.data() + set * params_.assoc;
    const std::uint32_t n = fill_[set];
    // Installed tags within a set are unique, so the lowest matching
    // index simd::firstEqual returns is *the* matching way.
    const std::size_t i = simd::firstEqual(w, n, tag);
    if (i != simd::npos) {
        for (std::size_t j = i; j > 0; --j) // move to MRU
            w[j] = w[j - 1];
        w[0] = tag;
        ++hits_;
        return true;
    }
    ++misses_;
    // Install at MRU, shifting the window right (the LRU tag in a full
    // set falls off the end — identical to push_front + pop_back).
    const std::uint32_t grown = n < params_.assoc ? n + 1 : n;
    for (std::uint32_t j = grown - 1; j > 0; --j)
        w[j] = w[j - 1];
    w[0] = tag;
    fill_[set] = grown;
    return false;
}

bool
Cache::contains(PAddr paddr) const
{
    const std::uint64_t tag = tagOf(paddr);
    const std::uint64_t set = setOf(tag);
    const std::uint64_t *w = tags_.data() + set * params_.assoc;
    return simd::firstEqual(w, fill_[set], tag) != simd::npos;
}

void
Cache::flush()
{
    std::fill(fill_.begin(), fill_.end(), 0u);
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               stats::StatGroup *parent)
    : params_(params),
      stats_("caches", parent),
      l1_(params.l1, &stats_),
      l2_(params.l2, &stats_),
      llc_(params.llc, &stats_),
      latency_{params.l1.hitLatency, params.l2.hitLatency,
               params.llc.hitLatency, params.memLatency},
      memAccesses_(stats_.addCounter("mem_accesses",
                                     "accesses that reached memory"))
{
}

// mixcheck: hot
HitLevel
CacheHierarchy::accessLevel(PAddr paddr, bool write)
{
    // Start the outer levels' tag-window loads before the L1 probe so
    // a full miss chain pays one host memory round-trip, not three.
    l2_.prefetchSet(paddr);
    llc_.prefetchSet(paddr);
    if (l1_.access(paddr, write))
        return HitLevel::L1;
    if (l2_.access(paddr, write))
        return HitLevel::L2;
    if (llc_.access(paddr, write))
        return HitLevel::LLC;
    ++memAccesses_;
    return HitLevel::Memory;
}

// mixcheck: hot
Cycles
CacheHierarchy::access(PAddr paddr, bool write)
{
    return levelLatency(accessLevel(paddr, write));
}

void
CacheHierarchy::flush()
{
    l1_.flush();
    l2_.flush();
    llc_.flush();
}

} // namespace mixtlb::cache
