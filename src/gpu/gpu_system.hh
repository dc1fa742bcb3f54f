/**
 * @file
 * The CPU-GPU shared-virtual-memory substrate of Sec. 6.3: a GPU with
 * N shader cores, a per-core L1 TLB, a shared L2 TLB, and a shared
 * page-table walker — the gem5-gpu-style organisation the paper uses.
 * Warps from all cores interleave, producing the bursty, high-MLP TLB
 * traffic that makes GPU TLBs performance-critical (Sec. 2).
 */

#ifndef MIXTLB_GPU_GPU_SYSTEM_HH
#define MIXTLB_GPU_GPU_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "tlb/hierarchy.hh"
#include "workload/generator.hh"

namespace mixtlb::gpu
{

/** References each core issues per scheduling turn (a warp). */
constexpr unsigned WarpRefs = 32;

struct GpuParams
{
    unsigned numCores = 16;
    tlb::TlbHierarchyParams tlbLatency{};
};

/** Builds one core's L1 TLB (so benches can vary the design). */
using L1TlbFactory = std::function<std::unique_ptr<tlb::BaseTlb>(
    unsigned core, stats::StatGroup *parent)>;

class GpuSystem
{
  public:
    /**
     * @param l2 shared by all shader cores.
     * @param source the shared walk source (native or nested).
     */
    GpuSystem(const GpuParams &params, stats::StatGroup *parent,
              const L1TlbFactory &l1_factory,
              std::shared_ptr<tlb::BaseTlb> l2,
              tlb::WalkSource &source, cache::CacheHierarchy &caches);

    /**
     * The input upload: ascending first-touch of [base, base+bytes)
     * through rotating cores, one access per 4KB page. Raises "oom"
     * when memory runs out.
     */
    void warmup(VAddr base, std::uint64_t bytes);

    /**
     * Run per-core generators round-robin, WarpRefs references per
     * core per turn, for @p total_refs references overall (fewer when
     * memory runs out; `gpu.refs` counts those completed).
     * @return total translation cycles across all cores.
     */
    Cycles run(std::vector<std::unique_ptr<workload::TraceGenerator>>
                   &per_core,
               std::uint64_t total_refs);

    tlb::TlbHierarchy &core(unsigned idx) { return *cores_[idx]; }
    unsigned numCores() const { return params_.numCores; }

    /** Invalidate a page in every core (GPU-wide shootdown). */
    void invalidatePage(VAddr vbase, PageSize size);

    /** Audit every core's L1 TLB and the shared L2 TLB. */
    void auditAll() const;

    stats::StatGroup &statGroup() { return stats_; }

  private:
    GpuParams params_;
    stats::StatGroup stats_;
    std::vector<std::unique_ptr<tlb::TlbHierarchy>> cores_;
    stats::Counter &totalRefs_;
    stats::Counter &translationCycles_;
};

} // namespace mixtlb::gpu

#endif // MIXTLB_GPU_GPU_SYSTEM_HH
