/**
 * @file
 * The benchmark's workloads. Each one is a fixed, deterministic unit
 * of work (machines built, warmed and measured) that perfbench repeats
 * until the run's time is up. A unit returns its host timings and, per
 * configuration, the modeled values run.py checks against the values
 * recorded in perfbench/expected/.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"
#include "tlb/hierarchy.hh"
#include "trace.hh"

namespace perfbench
{

using mixtlb::json::Value;

constexpr std::uint64_t MiB = 1ULL << 20;
constexpr std::uint64_t GiB = 1ULL << 30;

struct UnitContext
{
    /** Workload seed: feeds generators and machine seeds only. */
    std::uint64_t seed = 1;
    /** Span log of a traced unit; null when tracing is off. */
    SpanLog *log = nullptr;
    /** Worker threads for the sweep workload. */
    unsigned jobs = 3;
};

Value residentUnit(const UnitContext &ctx);
Value walkHeavyUnit(const UnitContext &ctx);
Value multiprogUnit(const UnitContext &ctx);
Value fig14Unit(const UnitContext &ctx);

/** Cache hierarchy the figure benches use (2MB LLC, DESIGN.md §5). */
mixtlb::cache::HierarchyParams scaledCaches();

/**
 * Modeled event counts of one TLB hierarchy plus the caches of its
 * stat tree, read from the StatGroup tree. Subtracting two snapshots
 * gives one measured segment's counts.
 */
struct Counts
{
    double refs = 0, xlatCycles = 0, walks = 0, l1Hits = 0, l2Hits = 0;
    double walkAccesses = 0, l1Fills = 0, l2Fills = 0;
    double invalidations = 0;
    double l1dMisses = 0, l2Misses = 0, llcMisses = 0, llcHits = 0;

    Counts &operator+=(const Counts &other);
    Counts operator-(const Counts &other) const;
};

/** Hierarchy counters (TLB side) of @p hier. */
Counts tlbCounts(const mixtlb::tlb::TlbHierarchy &hier);
/** Cache counters under "<prefix>caches." of @p root. */
Counts cacheCounts(const mixtlb::stats::StatGroup &root);

/** Faults of process group @p proc so far, all page sizes. */
double faultCount(const mixtlb::stats::StatGroup &root,
                  const std::string &proc);

/** The modeled-value record of one configuration. */
Value countsJson(const Counts &counts);

/**
 * Order-independent 64-bit hash of a stat tree's full dump: equal
 * hashes mean every statistic printed the same value.
 */
std::string dumpHash(const mixtlb::stats::StatGroup &root);

/** Seconds on the steady clock between two steadySeconds() reads. */
inline double
since(double start)
{
    return steadySeconds() - start;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
