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

MultiMachine::ProcStats::ProcStats(unsigned index,
                                   stats::StatGroup *parent)
    : group("p" + std::to_string(index), parent),
      accesses(group.addScalar("accesses",
          "translated references attributed to this process")),
      l1Hits(group.addScalar("l1_hits", "L1 TLB hits")),
      l2Hits(group.addScalar("l2_hits", "L2 TLB hits")),
      walks(group.addScalar("walks", "page table walks")),
      walkCycles(group.addScalar("walk_cycles",
                                 "cycles spent in walks")),
      translationCycles(group.addScalar("translation_cycles",
          "total address translation cycles")),
      walkAccesses(group.addScalar("walk_accesses",
          "memory references issued by walks")),
      walkDramAccesses(group.addScalar("walk_dram_accesses",
          "walk references that reached DRAM")),
      dirtyOps(group.addScalar("dirty_ops",
          "dirty-bit update micro-ops")),
      l1WaysRead(group.addScalar("l1_ways_read",
          "L1 TLB ways read during this process's slices")),
      l2WaysRead(group.addScalar("l2_ways_read",
          "L2 TLB ways read during this process's slices")),
      l1Fills(group.addScalar("l1_fills", "L1 TLB fills")),
      l2Fills(group.addScalar("l2_fills", "L2 TLB fills")),
      slices(group.addScalar("slices", "scheduling slices executed"))
{
    group.addFormula("l1_miss_rate", "L1 TLB miss fraction", [this] {
        double total = accesses.value();
        return total > 0 ? 1.0 - l1Hits.value() / total : 0.0;
    });
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
      switches_(sched_.addScalar("context_switches",
          "context switches performed")),
      flushes_(sched_.addScalar("full_flushes",
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
    s.accesses = hier_->accessCount();
    s.l1Hits = hier_->l1HitCount();
    s.l2Hits = hier_->l2HitCount();
    s.walks = hier_->walkCount();
    s.walkCycles = hier_->walkCycleCount();
    s.translationCycles = hier_->translationCycleCount();
    s.walkAccesses = hier_->walkAccessCount();
    s.walkDramAccesses = hier_->walkDramAccessCount();
    s.dirtyOps = hier_->dirtyMicroOpCount();
    s.l1WaysRead = hier_->l1().waysReadCount();
    s.l2WaysRead = hier_->l2().waysReadCount();
    s.l1Fills = hier_->l1().fillCount();
    s.l2Fills = hier_->l2().fillCount();
    return s;
}

void
MultiMachine::accumulate(unsigned proc, const Snapshot &before)
{
    const Snapshot now = takeSnapshot();
    ProcStats &ps = *procStats_[proc];
    ps.accesses += now.accesses - before.accesses;
    ps.l1Hits += now.l1Hits - before.l1Hits;
    ps.l2Hits += now.l2Hits - before.l2Hits;
    ps.walks += now.walks - before.walks;
    ps.walkCycles += now.walkCycles - before.walkCycles;
    ps.translationCycles +=
        now.translationCycles - before.translationCycles;
    ps.walkAccesses += now.walkAccesses - before.walkAccesses;
    ps.walkDramAccesses +=
        now.walkDramAccesses - before.walkDramAccesses;
    ps.dirtyOps += now.dirtyOps - before.dirtyOps;
    ps.l1WaysRead += now.l1WaysRead - before.l1WaysRead;
    ps.l2WaysRead += now.l2WaysRead - before.l2WaysRead;
    ps.l1Fills += now.l1Fills - before.l1Fills;
    ps.l2Fills += now.l2Fills - before.l2Fills;
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
    return procStats_.at(proc)->group.scalar(name).value();
}

double
MultiMachine::procL1MissRate(unsigned proc) const
{
    const ProcStats &ps = *procStats_.at(proc);
    const double total = ps.accesses.value();
    return total > 0 ? 1.0 - ps.l1Hits.value() / total : 0.0;
}

os::PageSizeDistribution
MultiMachine::distribution(unsigned proc) const
{
    return os::scanDistribution(procs_.at(proc)->pageTable());
}

} // namespace mixtlb::sim
