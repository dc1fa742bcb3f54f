#include "gpu_system.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "sim/driver.hh"

namespace mixtlb::gpu
{

GpuSystem::GpuSystem(const GpuParams &params, stats::StatGroup *parent,
                     const L1TlbFactory &l1_factory,
                     std::shared_ptr<tlb::BaseTlb> l2,
                     tlb::WalkSource &source,
                     cache::CacheHierarchy &caches)
    : params_(params), stats_("gpu", parent),
      totalRefs_(stats_.addCounter("refs", "references issued")),
      translationCycles_(stats_.addCounter("translation_cycles",
          "translation cycles across all cores"))
{
    fatal_if(params.numCores == 0, "GPU with zero shader cores");
    for (unsigned core = 0; core < params.numCores; core++) {
        cores_.push_back(std::make_unique<tlb::TlbHierarchy>(
            "core" + std::to_string(core), &stats_,
            l1_factory(core, &stats_), l2, source, caches,
            params.tlbLatency));
    }
}

void
GpuSystem::warmup(VAddr base, std::uint64_t bytes)
{
    sim::Driver driver("gpu", [this] { auditAll(); });
    driver.sweep("upload", bytes, PageBytes4K, [&](std::uint64_t off) {
        const VAddr va = base + off;
        auto &core = *cores_[(va >> PageShift4K) % cores_.size()];
        return core.access(va, true).ok;
    });
    driver.finish();
}

Cycles
GpuSystem::run(
    std::vector<std::unique_ptr<workload::TraceGenerator>> &per_core,
    std::uint64_t total_refs)
{
    fatal_if(per_core.size() != cores_.size(),
             "one generator per shader core required");
    sim::Driver driver("gpu", [this] { auditAll(); });
    Cycles cycles = 0;
    std::uint64_t issued = 0;
    bool ok = true;
    // Warps issue round-robin across the cores. Shader-core data
    // references never reach the CPU caches.
    for (unsigned core = 0; ok && issued < total_refs;
         core = (core + 1) % cores_.size()) {
        const auto warp = driver.replay(
            *cores_[core], *per_core[core],
            std::min<std::uint64_t>(WarpRefs, total_refs - issued),
            /*charge_data=*/false, [] {});
        cycles += warp.cycles;
        issued += warp.done;
        ok = warp.ok;
    }
    totalRefs_ += issued;
    translationCycles_ += cycles;
    driver.finish();
    return cycles;
}

void
GpuSystem::invalidatePage(VAddr vbase, PageSize size)
{
    for (auto &core : cores_)
        core->invalidatePage(vbase, size);
}

void
GpuSystem::auditAll() const
{
    contracts::AuditReport report("gpu");
    cores_[0]->l2().audit(report);
    for (const auto &core : cores_)
        core->l1().audit(report);
    contracts::require(report);
}

} // namespace mixtlb::gpu
