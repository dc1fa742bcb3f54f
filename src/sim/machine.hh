/**
 * @file
 * Fully wired simulated machines: physical memory, OS, page tables,
 * caches, walker, and a TLB hierarchy of a chosen design. `Machine` is
 * the native-CPU system of Sec. 6.2; `VirtMachine` hosts consolidated
 * VMs with nested translation (Sec. 6.1's KVM setup). These are the
 * objects the examples and benches drive.
 */

#ifndef MIXTLB_SIM_MACHINE_HH
#define MIXTLB_SIM_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "os/memhog.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "os/scan.hh"
#include "perf/energy_model.hh"
#include "perf/perf_model.hh"
#include "sim/configs.hh"
#include "tlb/hierarchy.hh"
#include "tlb/walk_source.hh"
#include "virt/nested_walk.hh"
#include "virt/vm.hh"
#include "workload/generator.hh"

namespace mixtlb::sim
{

struct MachineParams
{
    std::string name = "machine";
    std::uint64_t memBytes = 8ULL << 30;
    os::ProcessParams proc{};
    TlbDesign design = TlbDesign::Split;
    ConfigScale scale{};
    /** Fraction of memory memhog pins before the workload starts. */
    double memhogFraction = 0.0;
    double memhogUnmovableShare = 0.2;
    std::uint64_t seed = 1;
    /** Paging-structure (MMU) cache entries; 0 = disabled (paper). */
    unsigned pwcEntries = 0;
    cache::HierarchyParams caches{};
    tlb::TlbHierarchyParams tlbLatency{};
};

/** A native (non-virtualized) CPU system. */
class Machine
{
  public:
    explicit Machine(const MachineParams &params);

    /** Reserve a virtual arena for the workload. */
    VAddr mapArena(std::uint64_t bytes);

    /**
     * Replay @p refs references from @p gen through the MMU.
     * @return references completed (short only on OOM).
     */
    std::uint64_t run(workload::TraceGenerator &gen, std::uint64_t refs);

    /** Demand-fault [base, base+bytes) in ascending order. */
    void touchSequential(VAddr base, std::uint64_t bytes,
                         std::uint64_t step = PageBytes4K);

    /**
     * The initialization phase of a real program: sweep the arena in
     * ascending order *through the MMU*, one access per 4KB page. This
     * both hands adjacent virtual pages adjacent physical frames
     * (Sec. 7.1) and lets coalescing TLBs accumulate their bundles the
     * way they would under a real first-touch sweep.
     */
    void warmup(VAddr base, std::uint64_t bytes,
                std::uint64_t step = PageBytes4K);

    /** Zero all statistics; metrics cover only what follows. */
    void startMeasurement();

    /**
     * Run every structural auditor (physical memory, movable registry,
     * OS process, page table, both TLB levels) and exit fatally on any
     * violation. Runs automatically at phase boundaries when paranoia
     * >= 1 and periodically mid-run at paranoia >= 3.
     */
    void auditAll() const;

    perf::RunMetrics metrics(const perf::PerfParams &params = {}) const;
    perf::EnergyInputs energyInputs() const;

    os::PageSizeDistribution distribution() const;
    std::vector<std::uint64_t> contiguityRuns(PageSize size) const;

    os::Process &process() { return *proc_; }
    os::MemoryManager &memoryManager() { return mm_; }
    os::Memhog &memhog() { return memhog_; }
    tlb::TlbHierarchy &tlbs() { return *hier_; }
    stats::StatGroup &root() { return root_; }
    TlbDesign design() const { return params_.design; }

  private:
    MachineParams params_;
    stats::StatGroup root_;
    mem::PhysMem mem_;
    os::MemoryManager mm_;
    os::Memhog memhog_;
    std::unique_ptr<os::Process> proc_;
    cache::CacheHierarchy caches_;
    std::unique_ptr<tlb::NativeWalkSource> source_;
    std::unique_ptr<tlb::TlbHierarchy> hier_;
    std::uint64_t refs_ = 0;
    /** Hot counter: integral cycles, converted to double at report. */
    std::uint64_t dataCycles_ = 0;
};

struct VirtMachineParams
{
    std::string name = "virt";
    std::uint64_t hostMemBytes = 8ULL << 30;
    unsigned numVms = 1;
    std::uint64_t vmMemBytes = 0; ///< 0 = split host memory evenly
    os::ProcessParams guestProc{};
    os::PagePolicy hostPolicy = os::PagePolicy::Thp;
    TlbDesign design = TlbDesign::Split;
    ConfigScale scale{};
    /** memhog running inside each VM (the paper's "N VM : M mh"). */
    double guestMemhogFraction = 0.0;
    std::uint64_t seed = 1;
    cache::HierarchyParams caches{};
    tlb::TlbHierarchyParams tlbLatency{};
};

/** A host running consolidated VMs, one vCPU (TLB hierarchy) each. */
class VirtMachine
{
  public:
    explicit VirtMachine(const VirtMachineParams &params);
    ~VirtMachine();

    unsigned numVms() const { return static_cast<unsigned>(vms_.size()); }

    VAddr mapArena(unsigned vm, std::uint64_t bytes);
    std::uint64_t run(unsigned vm, workload::TraceGenerator &gen,
                      std::uint64_t refs);

    /** Ascending first-touch sweep through VM @p vm's MMU. */
    void warmup(unsigned vm, VAddr base, std::uint64_t bytes);

    /** Zero all statistics; metrics cover only what follows. */
    void startMeasurement();

    /**
     * Audit host memory and its movable registry, every VM (EPT +
     * guest), and every vCPU TLB.
     */
    void auditAll() const;

    /** Guest-visible page-size distribution of one VM's process. */
    os::PageSizeDistribution guestDistribution(unsigned vm) const;

    /**
     * End-to-end (gVA and sPA both contiguous) superpage runs — what
     * virtualized MIX TLBs can actually coalesce (Figures 11, 13).
     */
    std::vector<std::uint64_t> nestedContiguityRuns(unsigned vm,
                                                    PageSize size) const;

    /** Aggregate metrics over all vCPUs. */
    perf::RunMetrics metrics(const perf::PerfParams &params = {}) const;
    perf::EnergyInputs energyInputs() const;

    os::Process &guestProcess(unsigned vm) { return *guestProcs_[vm]; }
    tlb::TlbHierarchy &tlbs(unsigned vm) { return *hiers_.at(vm); }
    virt::Vm &vm(unsigned idx) { return *vms_[idx]; }
    stats::StatGroup &root() { return root_; }

  private:
    VirtMachineParams params_;
    stats::StatGroup root_;
    mem::PhysMem hostMem_;
    os::MemoryManager hostMm_;
    cache::CacheHierarchy caches_;
    std::vector<std::unique_ptr<virt::Vm>> vms_;
    std::vector<std::unique_ptr<os::Memhog>> guestMemhogs_;
    std::vector<std::unique_ptr<os::Process>> guestProcs_;
    std::vector<std::unique_ptr<virt::NestedWalkSource>> sources_;
    std::vector<std::unique_ptr<tlb::TlbHierarchy>> hiers_;
    std::uint64_t refs_ = 0;
    /** Hot counter: integral cycles, converted to double at report. */
    std::uint64_t dataCycles_ = 0;
};

/**
 * Energy-model inputs summed over @p hiers: the one CPU hierarchy, every
 * vCPU, or every shader core (whose shared L2 is read and filled once).
 */
perf::EnergyInputs
sumEnergyInputs(const std::vector<const tlb::TlbHierarchy *> &hiers,
                TlbDesign design, double total_cycles);

/**
 * The OS work at a run boundary: end the previous pressure burst and
 * maybe start one, maybe inject a demotion storm into @p proc, then
 * maintain() it. Draws the PressureBurst and DemoteStorm fault sites.
 */
void osBoundary(os::Memhog &hog, os::MemoryManager &mm,
                os::Process &proc);

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_MACHINE_HH
