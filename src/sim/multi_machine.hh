/**
 * @file
 * A multiprogrammed native machine: N processes, each with its own
 * page table, superpage policy, and workload stream, time-sharing one
 * TLB hierarchy, hardware walker, and cache hierarchy. Context
 * switches happen every `quantum` translated references under one of
 * two policies: FullFlush (the untagged baseline — every switch drops
 * both TLB levels and the PWC) or AsidTagged (entries carry the
 * owning process's ASID and survive switches, competing for capacity).
 */

#ifndef MIXTLB_SIM_MULTI_MACHINE_HH
#define MIXTLB_SIM_MULTI_MACHINE_HH

#include <array>
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
#include "workload/generator.hh"

namespace mixtlb::sim
{

/** What a context switch does to the translation caches. */
enum class SwitchPolicy : std::uint8_t
{
    FullFlush,  ///< untagged hardware: flush TLBs + PWC every switch
    AsidTagged, ///< tagged hardware: no flush, entries coexist
};

const char *switchPolicyName(SwitchPolicy policy);

struct MultiMachineParams
{
    std::string name = "multi";
    std::uint64_t memBytes = 8ULL << 30;
    /** One entry per process (name defaults to "procN" when empty). */
    std::vector<os::ProcessParams> procs;
    /** Translated references per scheduling slice. */
    std::uint64_t quantum = 1024;
    SwitchPolicy policy = SwitchPolicy::AsidTagged;
    TlbDesign design = TlbDesign::Split;
    ConfigScale scale{};
    double memhogFraction = 0.0;
    double memhogUnmovableShare = 0.2;
    std::uint64_t seed = 1;
    unsigned pwcEntries = 0;
    cache::HierarchyParams caches{};
    tlb::TlbHierarchyParams tlbLatency{};
};

/**
 * N processes round-robin scheduled over one shared TlbHierarchy.
 *
 * Per-process translation statistics (accesses, hits, walk cycles,
 * fills, energy feeders) are attributed by snapshotting the shared
 * hierarchy's counters around each slice, and land in per-process
 * stat groups "p0", "p1", ... under the machine root.
 */
class MultiMachine
{
  public:
    explicit MultiMachine(const MultiMachineParams &params);

    unsigned numProcs() const
    {
        return static_cast<unsigned>(procs_.size());
    }

    /** ASID of process @p proc. ASID 0 stays the single-process default. */
    static Asid asidOf(unsigned proc)
    {
        return static_cast<Asid>(proc + 1);
    }

    /** Reserve a virtual arena for process @p proc's workload. */
    VAddr mapArena(unsigned proc, std::uint64_t bytes);

    /** Pre-touch + pre-translate an arena as process @p proc. */
    void warmup(unsigned proc, VAddr base, std::uint64_t bytes,
                std::uint64_t step = pageBytes(PageSize::Size4K));

    /** Hand process @p proc its reference stream. */
    void attachWorkload(unsigned proc,
                        std::unique_ptr<workload::TraceGenerator> gen);

    /**
     * Round-robin all processes, @p refs_per_proc references each, in
     * quantum-sized slices. A process that runs out of memory is
     * parked; the rest keep running. Returns total references done.
     */
    std::uint64_t run(std::uint64_t refs_per_proc);

    /** Reset statistics after warmup. */
    void startMeasurement();

    /**
     * Run every structural auditor (all processes + TLBs + memory and
     * its movable registry).
     */
    void auditAll() const;

    /** Machine-wide metrics over the measured window. */
    perf::RunMetrics metrics(const perf::PerfParams &params = {}) const;

    /** Machine-wide energy-model inputs. */
    perf::EnergyInputs energyInputs() const;

    /** Per-process attribution stat @p name (group "p<proc>"). */
    double procStat(unsigned proc, const std::string &name) const;

    /** Per-process L1 TLB miss fraction over the measured window. */
    double procL1MissRate(unsigned proc) const;

    os::PageSizeDistribution distribution(unsigned proc) const;

    double contextSwitches() const
    {
        return static_cast<double>(switches_.value());
    }
    double fullFlushes() const
    {
        return static_cast<double>(flushes_.value());
    }

    os::Process &process(unsigned proc) { return *procs_.at(proc); }
    tlb::TlbHierarchy &tlbs() { return *hier_; }
    stats::StatGroup &root() { return root_; }
    TlbDesign design() const { return params_.design; }
    SwitchPolicy policy() const { return params_.policy; }

  private:
    /** Stats attributed per process (the table in multi_machine.cc). */
    static constexpr std::size_t NumAttributed = 13;

    /** The shared hierarchy's attributed counts, in table order. */
    using Snapshot = std::array<std::int64_t, NumAttributed>;

    /** Per-process attribution counters, group "p<index>". */
    struct ProcStats
    {
        ProcStats(unsigned index, stats::StatGroup *parent);

        double l1MissRate() const;

        stats::StatGroup group;
        std::array<stats::Counter *, NumAttributed> attributed;
        stats::Counter &slices;
    };

    Snapshot takeSnapshot() const;
    void accumulate(unsigned proc, const Snapshot &before);

    /**
     * Make @p proc the running process: bump the switch counters,
     * apply the flush policy, retarget the walker/PWC, and set the
     * active ASID at both TLB levels.
     */
    void switchTo(unsigned proc);

    MultiMachineParams params_;
    stats::StatGroup root_;
    mem::PhysMem mem_;
    os::MemoryManager mm_;
    os::Memhog memhog_;
    cache::CacheHierarchy caches_;

    std::vector<std::unique_ptr<os::Process>> procs_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> gens_;
    std::unique_ptr<tlb::MultiWalkSource> source_;
    std::unique_ptr<tlb::TlbHierarchy> hier_;
    std::vector<std::unique_ptr<ProcStats>> procStats_;

    stats::StatGroup sched_;
    stats::Counter &switches_;
    stats::Counter &flushes_;

    unsigned current_ = 0;
    bool everSwitched_ = false;
    std::uint64_t refs_ = 0;
    std::uint64_t dataCycles_ = 0;
};

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_MULTI_MACHINE_HH
