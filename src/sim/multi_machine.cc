#include "multi_machine.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "sim/driver.hh"
#include "sim/machine.hh"
#include "tlb/ideal.hh"

namespace mixtlb::sim
{

const char *
switchPolicyName(SwitchPolicy policy)
{
    switch (policy) {
      case SwitchPolicy::FullFlush: return "full-flush";
      case SwitchPolicy::AsidTagged: return "asid";
    }
    return "unknown";
}

namespace
{

/**
 * The stats MultiMachine attributes to the running process: each one's
 * name in the "p<index>" group, its description, and how to read the
 * shared hierarchy's running total. The first two feed l1_miss_rate.
 */
struct Attributed
{
    const char *name;
    const char *desc;
    double (*read)(const tlb::TlbHierarchy &);
};

using Hier = tlb::TlbHierarchy;

constexpr Attributed attributedStats[] = {
    {"accesses", "translated references attributed to this process",
     [](const Hier &h) { return h.accessCount(); }},
    {"l1_hits", "L1 TLB hits",
     [](const Hier &h) { return h.l1HitCount(); }},
    {"l2_hits", "L2 TLB hits",
     [](const Hier &h) { return h.l2HitCount(); }},
    {"walks", "page table walks",
     [](const Hier &h) { return h.walkCount(); }},
    {"walk_cycles", "cycles spent in walks",
     [](const Hier &h) { return h.walkCycleCount(); }},
    {"translation_cycles", "total address translation cycles",
     [](const Hier &h) { return h.translationCycleCount(); }},
    {"walk_accesses", "memory references issued by walks",
     [](const Hier &h) { return h.walkAccessCount(); }},
    {"walk_dram_accesses", "walk references that reached DRAM",
     [](const Hier &h) { return h.walkDramAccessCount(); }},
    {"dirty_ops", "dirty-bit update micro-ops",
     [](const Hier &h) { return h.dirtyMicroOpCount(); }},
    {"l1_ways_read", "L1 TLB ways read during this process's slices",
     [](const Hier &h) { return h.l1().waysReadCount(); }},
    {"l2_ways_read", "L2 TLB ways read during this process's slices",
     [](const Hier &h) { return h.l2().waysReadCount(); }},
    {"l1_fills", "L1 TLB fills",
     [](const Hier &h) { return h.l1().fillCount(); }},
    {"l2_fills", "L2 TLB fills",
     [](const Hier &h) { return h.l2().fillCount(); }},
};

} // anonymous namespace

MultiMachine::ProcStats::ProcStats(unsigned index,
                                   stats::StatGroup *parent)
    // Not "p" + std::to_string(index): GCC 12 at -O3 reports a false
    // -Wrestrict on that operator+.
    : group(std::string("p").append(std::to_string(index)), parent),
      slices(group.addCounter("slices", "scheduling slices executed"))
{
    static_assert(std::size(attributedStats) == NumAttributed);
    for (std::size_t k = 0; k < NumAttributed; k++) {
        attributed[k] = &group.addCounter(attributedStats[k].name,
                                          attributedStats[k].desc);
    }
    group.addFormula("l1_miss_rate", "L1 TLB miss fraction",
                     [this] { return l1MissRate(); });
}

double
MultiMachine::ProcStats::l1MissRate() const
{
    const auto total = static_cast<double>(attributed[0]->value());
    return total > 0
               ? 1.0 - static_cast<double>(attributed[1]->value()) / total
               : 0.0;
}

MultiMachine::MultiMachine(const MultiMachineParams &params)
    : params_(params), root_(params.name), mem_(params.memBytes),
      mm_(mem_, &root_,
          [&params] {
              os::CompactionParams compaction;
              compaction.seed = params.seed * 0x9e3779b9ULL + 17;
              return compaction;
          }()),
      memhog_(mm_, params.memhogUnmovableShare),
      caches_(params.caches, &root_), sched_("sched", &root_),
      switches_(sched_.addCounter("context_switches",
          "context switches performed")),
      flushes_(sched_.addCounter("full_flushes",
          "TLB+PWC full flushes forced by the switch policy"))
{
    fatal_if(params.procs.empty(),
             "MultiMachine %s needs at least one process",
             params.name.c_str());
    fatal_if(params.quantum == 0,
             "MultiMachine %s: quantum must be nonzero",
             params.name.c_str());

    if (params.memhogFraction > 0.0)
        memhog_.fragment(params.memhogFraction, params.seed);

    source_ = std::make_unique<tlb::MultiWalkSource>(
        &root_, walkerScanLines(params.design),
        pt::PwcParams{params.pwcEntries});

    for (unsigned i = 0; i < params.procs.size(); i++) {
        os::ProcessParams pp = params.procs[i];
        if (pp.name.empty() || pp.name == "proc")
            pp.name = "proc" + std::to_string(i);
        procs_.push_back(
            std::make_unique<os::Process>(mm_, pp, &root_));
        source_->addProcess(
            procs_.back()->pageTable(),
            [this, i](VAddr va, bool store) {
                return procs_[i]->touch(va, store)
                       != os::TouchResult::OutOfMemory;
            });
        procStats_.push_back(
            std::make_unique<ProcStats>(i, &root_));
    }
    gens_.resize(procs_.size());

    const pt::PageTable *table = &procs_[0]->pageTable();
    hier_ = std::make_unique<tlb::TlbHierarchy>(
        "tlb", &root_,
        makeCpuL1(params.design, &root_, table, params.scale),
        makeCpuL2(params.design, &root_, table, params.scale),
        *source_, caches_, params.tlbLatency);

    // The Ideal design bypasses fills and translates straight from a
    // page table, so it needs every address space registered by ASID.
    if (params.design == TlbDesign::Ideal) {
        for (auto *level : {&hier_->l1(), &hier_->l2()}) {
            auto *ideal = dynamic_cast<tlb::IdealTlb *>(level);
            panic_if(!ideal, "Ideal design without IdealTlb levels");
            for (unsigned i = 0; i < procs_.size(); i++)
                ideal->registerTable(asidOf(i), procs_[i]->pageTable());
        }
    }

    // Shootdowns from compaction / memhog churn broadcast with the
    // owning process's ASID, whoever happens to be running.
    for (unsigned i = 0; i < procs_.size(); i++) {
        procs_[i]->addInvalidateListener(
            [this, i](VAddr vbase, PageSize size) {
                hier_->invalidatePage(vbase, size, asidOf(i));
            });
    }

    // Start with process 0 resident so warmup/run never translate
    // against an unswitched walker.
    switchTo(0);
}

VAddr
MultiMachine::mapArena(unsigned proc, std::uint64_t bytes)
{
    return procs_.at(proc)->mmap(bytes);
}

void
MultiMachine::attachWorkload(
    unsigned proc, std::unique_ptr<workload::TraceGenerator> gen)
{
    gens_.at(proc) = std::move(gen);
}

MultiMachine::Snapshot
MultiMachine::takeSnapshot() const
{
    Snapshot s;
    for (std::size_t k = 0; k < NumAttributed; k++)
        s[k] = static_cast<std::int64_t>(attributedStats[k].read(*hier_));
    return s;
}

void
MultiMachine::accumulate(unsigned proc, const Snapshot &before)
{
    const Snapshot now = takeSnapshot();
    ProcStats &ps = *procStats_[proc];
    for (std::size_t k = 0; k < NumAttributed; k++)
        *ps.attributed[k] += now[k] - before[k];
    ++ps.slices;
}

void
MultiMachine::switchTo(unsigned proc)
{
    if (everSwitched_ && proc == current_)
        return;
    if (everSwitched_)
        ++switches_;
    if (params_.policy == SwitchPolicy::FullFlush && everSwitched_) {
        hier_->invalidateAll();
        source_->flushTranslationCaches();
        ++flushes_;
    }
    source_->switchTo(proc, asidOf(proc));
    hier_->setAsid(asidOf(proc));
    current_ = proc;
    everSwitched_ = true;
}

std::uint64_t
MultiMachine::run(std::uint64_t refs_per_proc)
{
    for (unsigned i = 0; i < numProcs(); i++) {
        fatal_if(!gens_[i],
                 "machine %s: process %u has no workload attached",
                 params_.name.c_str(), i);
    }
    Driver driver("machine " + params_.name, [this] { auditAll(); });
    std::vector<std::uint64_t> remaining(numProcs(), refs_per_proc);
    std::uint64_t total = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (unsigned i = 0; i < numProcs(); i++) {
            if (!remaining[i])
                continue;
            switchTo(i);
            const Snapshot before = takeSnapshot();
            const auto replay = driver.replay(
                *hier_, *gens_[i], std::min(params_.quantum, remaining[i]),
                /*charge_data=*/true, [] {});
            dataCycles_ += replay.dataCycles;
            accumulate(i, before);
            total += replay.done;
            if (replay.done)
                progress = true;
            // Out of memory parks the process for good.
            remaining[i] = replay.ok ? remaining[i] - replay.done : 0;
            // The OS boundary sits at slice ends. Its reclaim may shrink
            // *other* processes too (the reclaimer registry spans the
            // shared memory manager), exercising per-ASID shootdown
            // isolation.
            osBoundary(memhog_, mm_, *procs_[i]);
        }
    }
    memhog_.burstRelease();
    refs_ += total;
    driver.finish();
    return total;
}

void
MultiMachine::warmup(unsigned proc, VAddr base, std::uint64_t bytes,
                     std::uint64_t step)
{
    switchTo(proc);
    Driver driver("machine " + params_.name + " process " +
                      std::to_string(proc),
                  [this] { auditAll(); });
    driver.sweep("warmup", bytes, step, [&](std::uint64_t off) {
        return hier_->access(base + off, true).ok;
    });
    driver.finish();
}

void
MultiMachine::auditAll() const
{
    contracts::AuditReport report(params_.name);
    mem_.audit(report);
    mm_.audit(report);
    for (const auto &proc : procs_)
        proc->audit(report);
    hier_->l1().audit(report);
    hier_->l2().audit(report);
    contracts::require(report);
}

void
MultiMachine::startMeasurement()
{
    root_.resetStats();
    refs_ = 0;
    dataCycles_ = 0;
}

perf::RunMetrics
MultiMachine::metrics(const perf::PerfParams &params) const
{
    return perf::computeMetrics(refs_, hier_->translationCycleCount(),
                                static_cast<double>(dataCycles_),
                                params);
}

perf::EnergyInputs
MultiMachine::energyInputs() const
{
    return sumEnergyInputs({hier_.get()}, params_.design,
                           metrics().totalCycles);
}

double
MultiMachine::procStat(unsigned proc, const std::string &name) const
{
    return procStats_.at(proc)->group.value(name);
}

double
MultiMachine::procL1MissRate(unsigned proc) const
{
    return procStats_.at(proc)->l1MissRate();
}

os::PageSizeDistribution
MultiMachine::distribution(unsigned proc) const
{
    return os::scanDistribution(procs_.at(proc)->pageTable());
}

} // namespace mixtlb::sim
