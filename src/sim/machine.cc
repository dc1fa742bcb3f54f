#include "machine.hh"

#include "common/contracts.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "sim/driver.hh"

namespace mixtlb::sim
{

/**
 * Frames reclaimed alongside each injected demote storm: enough to
 * punch refault-able holes into the demoted region without stalling
 * the run on refault service.
 */
constexpr std::uint64_t StormReclaimFrames = 64;

void
osBoundary(os::Memhog &hog, os::MemoryManager &mm, os::Process &proc)
{
    // Pressure bursts are transient: the previous burst (if any) ends
    // at this boundary, and a new one may begin.
    hog.burstRelease();
    if (fault::fire(fault::Site::PressureBurst))
        hog.burstAcquire(mm.phys().buddy().freeFrames() / 2);
    // Injected demotion storms model the OS under memory duress:
    // demote a superpage, then reclaim frames (which drops cold pages
    // from the demoted region, and may shrink other processes sharing
    // @p mm). The later refaults scatter the region's frames, so
    // maintain()'s re-promotion must take the khugepaged-style
    // collapse path — the hard shootdown cases, end to end.
    if (fault::fire(fault::Site::DemoteStorm)) {
        proc.demoteStorm(1);
        mm.reclaim(StormReclaimFrames);
    }
    proc.maintain();
}

Machine::Machine(const MachineParams &params)
    : params_(params), root_(params.name), mem_(params.memBytes),
      mm_(mem_, &root_,
          [&params] {
              os::CompactionParams compaction;
              compaction.seed = params.seed * 0x9e3779b9ULL + 17;
              return compaction;
          }()),
      memhog_(mm_, params.memhogUnmovableShare),
      caches_(params.caches, &root_)
{
    if (params.memhogFraction > 0.0)
        memhog_.fragment(params.memhogFraction, params.seed);

    proc_ = std::make_unique<os::Process>(mm_, params.proc, &root_);

    source_ = std::make_unique<tlb::NativeWalkSource>(
        proc_->pageTable(), &root_,
        [this](VAddr va, bool store) {
            return proc_->touch(va, store)
                   != os::TouchResult::OutOfMemory;
        },
        walkerScanLines(params.design),
        pt::PwcParams{params.pwcEntries});

    const pt::PageTable *table = &proc_->pageTable();
    hier_ = std::make_unique<tlb::TlbHierarchy>(
        "tlb", &root_,
        makeCpuL1(params.design, &root_, table, params.scale),
        makeCpuL2(params.design, &root_, table, params.scale),
        *source_, caches_, params.tlbLatency);

    proc_->addInvalidateListener([this](VAddr vbase, PageSize size) {
        hier_->invalidatePage(vbase, size);
    });
}

VAddr
Machine::mapArena(std::uint64_t bytes)
{
    return proc_->mmap(bytes);
}

std::uint64_t
Machine::run(workload::TraceGenerator &gen, std::uint64_t refs)
{
    Driver driver("machine " + params_.name, [this] { auditAll(); });
    const auto replay =
        driver.replay(*hier_, gen, refs, /*charge_data=*/true,
                      [this] { osBoundary(memhog_, mm_, *proc_); });
    memhog_.burstRelease();
    refs_ += replay.done;
    dataCycles_ += replay.dataCycles;
    driver.finish();
    return replay.done;
}

void
Machine::touchSequential(VAddr base, std::uint64_t bytes,
                         std::uint64_t step)
{
    Driver driver("machine " + params_.name, [this] { auditAll(); });
    driver.sweep("touchSequential", bytes, step, [&](std::uint64_t off) {
        return proc_->touch(base + off) != os::TouchResult::OutOfMemory;
    });
}

void
Machine::warmup(VAddr base, std::uint64_t bytes, std::uint64_t step)
{
    Driver driver("machine " + params_.name, [this] { auditAll(); });
    driver.sweep("warmup", bytes, step, [&](std::uint64_t off) {
        return hier_->access(base + off, true).ok;
    });
    driver.finish();
}

void
Machine::auditAll() const
{
    contracts::AuditReport report(params_.name);
    mem_.audit(report);
    mm_.audit(report);
    proc_->audit(report); // covers the page table's radix invariants
    hier_->l1().audit(report);
    hier_->l2().audit(report);
    contracts::require(report);
}

void
Machine::startMeasurement()
{
    root_.resetStats();
    refs_ = 0;
    dataCycles_ = 0;
}

perf::RunMetrics
Machine::metrics(const perf::PerfParams &params) const
{
    return perf::computeMetrics(refs_, hier_->translationCycleCount(),
                                static_cast<double>(dataCycles_),
                                params);
}

perf::EnergyInputs
Machine::energyInputs() const
{
    return sumEnergyInputs({hier_.get()}, params_.design,
                           metrics().totalCycles);
}

os::PageSizeDistribution
Machine::distribution() const
{
    return os::scanDistribution(proc_->pageTable());
}

std::vector<std::uint64_t>
Machine::contiguityRuns(PageSize size) const
{
    return os::contiguityRuns(proc_->pageTable(), size);
}

perf::EnergyInputs
sumEnergyInputs(const std::vector<const tlb::TlbHierarchy *> &hiers,
                TlbDesign design, double total_cycles)
{
    const bool mirroring = design == TlbDesign::Mix ||
                           design == TlbDesign::MixColt ||
                           design == TlbDesign::MixSuperIndex;
    const bool predictor = design == TlbDesign::HashRehashPred ||
                           design == TlbDesign::SkewPred;
    perf::EnergyInputs total;
    const tlb::BaseTlb *counted_l2 = nullptr;
    for (const auto *hier : hiers) {
        const auto &l1 = hier->l1();
        const auto &l2 = hier->l2();
        total.l1WaysRead += l1.waysReadCount();
        total.l1Entries = l1.numEntries();
        total.l1Fills += l1.fillCount();
        // A shared L2 (the GPU's) is one structure: read and fill it
        // once. Its invalidations and predictor lookups below still
        // count once per hierarchy (DESIGN.md §12, known quirk).
        if (&l2 != counted_l2) {
            total.l2WaysRead += l2.waysReadCount();
            total.l2Fills += l2.fillCount();
            counted_l2 = &l2;
        }
        total.l2Entries = l2.numEntries();
        total.walkAccesses += hier->walkAccessCount();
        total.walkDramAccesses += hier->walkDramAccessCount();
        total.dirtyOps += hier->dirtyMicroOpCount();
        total.invalidations +=
            l1.invalidationCount() + l2.invalidationCount();
        if (predictor) {
            total.predictorLookups +=
                l1.hits() + l1.misses() + l2.hits() + l2.misses();
        }
    }
    total.fillBurstFactor = mirroring ? 0.25 : 1.0;
    total.skewTimestamps = design == TlbDesign::Skew ||
                           design == TlbDesign::SkewPred;
    total.totalCycles = total_cycles;
    return total;
}

VirtMachine::VirtMachine(const VirtMachineParams &params)
    : params_(params), root_(params.name), hostMem_(params.hostMemBytes),
      hostMm_(hostMem_, &root_), caches_(params.caches, &root_)
{
    fatal_if(params.numVms == 0, "virtual machine count is zero");
    std::uint64_t vm_bytes = params.vmMemBytes
                                 ? params.vmMemBytes
                                 : params.hostMemBytes / params.numVms;

    for (unsigned i = 0; i < params.numVms; i++) {
        virt::VmParams vm_params;
        vm_params.name = "vm" + std::to_string(i);
        vm_params.guestMemBytes = vm_bytes;
        vm_params.hostPolicy = params.hostPolicy;
        vms_.push_back(std::make_unique<virt::Vm>(hostMm_, vm_params,
                                                  &root_));

        if (params.guestMemhogFraction > 0.0) {
            auto hog = std::make_unique<os::Memhog>(vms_[i]->guestMm());
            hog->fragment(params.guestMemhogFraction,
                          params.seed + 100 + i);
            guestMemhogs_.push_back(std::move(hog));
        }

        os::ProcessParams proc_params = params.guestProc;
        proc_params.name = "guest" + std::to_string(i);
        guestProcs_.push_back(std::make_unique<os::Process>(
            vms_[i]->guestMm(), proc_params, &root_));

        sources_.push_back(std::make_unique<virt::NestedWalkSource>(
            *vms_[i], *guestProcs_[i], &vms_[i]->statGroup(),
            walkerScanLines(params.design)));

        const pt::PageTable *table = &guestProcs_[i]->pageTable();
        hiers_.push_back(std::make_unique<tlb::TlbHierarchy>(
            "tlb" + std::to_string(i), &root_,
            makeCpuL1(params.design, &vms_[i]->statGroup(), table,
                      params.scale),
            makeCpuL2(params.design, &vms_[i]->statGroup(), table,
                      params.scale),
            *sources_[i], caches_, params.tlbLatency));

        guestProcs_[i]->addInvalidateListener(
            [this, i](VAddr vbase, PageSize size) {
                hiers_[i]->invalidatePage(vbase, size);
            });
    }
}

VirtMachine::~VirtMachine()
{
    // Guest processes reference their VM's memory manager; destroy the
    // dependents before the VMs (vector order would do the reverse).
    hiers_.clear();
    sources_.clear();
    guestProcs_.clear();
    guestMemhogs_.clear();
    vms_.clear();
}

VAddr
VirtMachine::mapArena(unsigned vm, std::uint64_t bytes)
{
    return guestProcs_.at(vm)->mmap(bytes);
}

std::uint64_t
VirtMachine::run(unsigned vm, workload::TraceGenerator &gen,
                 std::uint64_t refs)
{
    // The boundary is deadline-only: no pressure bursts or demotion
    // storms inside the VMs.
    Driver driver("vm " + std::to_string(vm), [this] { auditAll(); });
    const auto replay = driver.replay(*hiers_.at(vm), gen, refs,
                                      /*charge_data=*/true, [] {});
    refs_ += replay.done;
    dataCycles_ += replay.dataCycles;
    driver.finish();
    return replay.done;
}

void
VirtMachine::warmup(unsigned vm, VAddr base, std::uint64_t bytes)
{
    auto &hier = *hiers_.at(vm);
    Driver driver("vm " + std::to_string(vm), [this] { auditAll(); });
    driver.sweep("warmup", bytes, PageBytes4K, [&](std::uint64_t off) {
        return hier.access(base + off, true).ok;
    });
    driver.finish();
}

void
VirtMachine::auditAll() const
{
    contracts::AuditReport report(params_.name);
    hostMem_.audit(report);
    hostMm_.audit(report);
    for (const auto &vm : vms_)
        vm->audit(report);
    for (const auto &proc : guestProcs_)
        proc->audit(report);
    for (const auto &hier : hiers_) {
        hier->l1().audit(report);
        hier->l2().audit(report);
    }
    contracts::require(report);
}

void
VirtMachine::startMeasurement()
{
    root_.resetStats();
    refs_ = 0;
    dataCycles_ = 0;
}

os::PageSizeDistribution
VirtMachine::guestDistribution(unsigned vm) const
{
    return os::scanDistribution(guestProcs_.at(vm)->pageTable());
}

std::vector<std::uint64_t>
VirtMachine::nestedContiguityRuns(unsigned vm, PageSize size) const
{
    // A nested run extends while guest VA and *system* PA both advance
    // by one superpage; the host must back each guest superpage with a
    // host page at least as large.
    std::vector<std::uint64_t> runs;
    const auto &vmref = *vms_.at(vm);
    bool have_prev = false;
    VAddr prev_vbase = 0;
    PAddr prev_spa = 0;
    std::uint64_t run = 0;

    guestProcs_.at(vm)->pageTable().forEachLeaf(
        [&](const pt::Translation &t) {
            if (t.size != size)
                return;
            auto spa = vmref.hostPhysIfMapped(t.pbase);
            bool backed = spa.has_value();
            if (backed) {
                auto host =
                    vmref.ept().translate(vmref.eptHva(t.pbase));
                backed = host &&
                         pageShift(host->size) >= pageShift(size);
            }
            if (!backed) {
                if (run > 0)
                    runs.push_back(run);
                run = 0;
                have_prev = false;
                return;
            }
            if (have_prev &&
                t.vbase == prev_vbase + pageBytes(size) &&
                *spa == prev_spa + pageBytes(size)) {
                run++;
            } else {
                if (run > 0)
                    runs.push_back(run);
                run = 1;
            }
            prev_vbase = t.vbase;
            prev_spa = *spa;
            have_prev = true;
        });
    if (run > 0)
        runs.push_back(run);
    return runs;
}

perf::RunMetrics
VirtMachine::metrics(const perf::PerfParams &params) const
{
    double cycles = 0;
    for (const auto &hier : hiers_)
        cycles += hier->translationCycleCount();
    return perf::computeMetrics(refs_, cycles,
                                static_cast<double>(dataCycles_),
                                params);
}

perf::EnergyInputs
VirtMachine::energyInputs() const
{
    std::vector<const tlb::TlbHierarchy *> hiers;
    for (const auto &hier : hiers_)
        hiers.push_back(hier.get());
    return sumEnergyInputs(hiers, params_.design,
                           metrics().totalCycles);
}

} // namespace mixtlb::sim
