/**
 * @file
 * Tests for the virtualization substrate: EPT backing, nested walks
 * (the 24-access 2-D walk), effective page sizes under splintering,
 * and nested coalescing candidates for MIX TLBs.
 */

#include <gtest/gtest.h>

#include "os/memhog.hh"
#include "os/scan.hh"
#include "sim/machine.hh"
#include "virt/nested_walk.hh"
#include "virt/vm.hh"

using namespace mixtlb;
using namespace mixtlb::virt;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

struct VirtFixture : ::testing::Test
{
    mem::PhysMem hostMem{4 * GiB};
    stats::StatGroup root{"test"};
    os::MemoryManager hostMm{hostMem, &root};

    VmParams
    vmParams(std::uint64_t guest_bytes = 1 * GiB)
    {
        VmParams params;
        params.guestMemBytes = guest_bytes;
        return params;
    }

    os::ProcessParams
    guestThp()
    {
        os::ProcessParams params;
        params.name = "guest";
        params.policy = os::PagePolicy::Thp;
        return params;
    }
};

} // anonymous namespace

TEST_F(VirtFixture, EptBacksGuestPhysicalLazily)
{
    Vm vm(hostMm, vmParams(), &root);
    EXPECT_FALSE(vm.hostPhysIfMapped(0x1000).has_value());
    auto spa = vm.hostPhys(0x1000, false);
    ASSERT_TRUE(spa.has_value());
    EXPECT_TRUE(vm.hostPhysIfMapped(0x1000).has_value());
    EXPECT_EQ(*vm.hostPhysIfMapped(0x1000), *spa);
    EXPECT_GT(root.value("vm.ept_faults"), 0.0);
}

TEST_F(VirtFixture, HostThpBacksGuestWithSuperpages)
{
    Vm vm(hostMm, vmParams(), &root);
    auto leaf = vm.hostLeaf(64 * MiB, false);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->size, PageSize::Size2M);
}

TEST_F(VirtFixture, NestedWalkIssues24AccessesFor4KOn4K)
{
    // Force 4KB pages at both levels.
    VmParams vp = vmParams();
    vp.hostPolicy = os::PagePolicy::SmallOnly;
    Vm vm(hostMm, vp, &root);
    os::ProcessParams gp = guestThp();
    gp.policy = os::PagePolicy::SmallOnly;
    os::Process guest(vm.guestMm(), gp, &root);
    NestedWalkSource source(vm, guest, &root);

    VAddr va = guest.mmap(16 * MiB);
    guest.touch(va);
    // Warm the EPT so no EPT violations inflate the count.
    source.walk(va, false);
    auto walk = source.walk(va, false);
    ASSERT_FALSE(walk.pageFault());
    // 4 guest levels x (4-level host walk + guest PTE read) + final
    // 4-level host walk = 24.
    EXPECT_EQ(walk.accesses.size(), 24u);
}

TEST_F(VirtFixture, NestedWalkShortensWithSuperpages)
{
    // Guest 2MB page over host THS (2MB EPT pages): guest walk is 3
    // levels, each host walk is 3 accesses, plus a 3-access final walk:
    // 3*(3+1) + 3 = 15.
    Vm vm(hostMm, vmParams(), &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);

    VAddr va = guest.mmap(64 * MiB);
    guest.touch(va);
    ASSERT_EQ(guest.pageTable().translate(va)->size, PageSize::Size2M);
    source.walk(va, false);
    auto walk = source.walk(va, false);
    ASSERT_FALSE(walk.pageFault());
    EXPECT_LT(walk.accesses.size(), 24u);
    EXPECT_GE(walk.accesses.size(), 12u);
}

TEST_F(VirtFixture, EffectivePageSizeIsMinOfLevels)
{
    // Guest 2MB page, host 4KB backing: the effective (TLB-cacheable)
    // page size must splinter to 4KB.
    VmParams vp = vmParams();
    vp.hostPolicy = os::PagePolicy::SmallOnly;
    Vm vm(hostMm, vp, &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);

    VAddr va = guest.mmap(64 * MiB);
    guest.touch(va);
    ASSERT_EQ(guest.pageTable().translate(va)->size, PageSize::Size2M);
    auto walk = source.walk(va, false);
    ASSERT_FALSE(walk.pageFault());
    EXPECT_EQ(walk.leaf->size, PageSize::Size4K);
}

TEST_F(VirtFixture, NestedTranslationIsCorrect)
{
    Vm vm(hostMm, vmParams(), &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);
    VAddr base = guest.mmap(64 * MiB);
    for (VAddr va = base; va < base + 16 * MiB; va += 3 * PageBytes4K) {
        guest.touch(va);
        auto walk = source.walk(va, false);
        ASSERT_FALSE(walk.pageFault());
        // Compose the two levels functionally and compare.
        auto gleaf = guest.pageTable().translate(va);
        PAddr gpa = gleaf->translate(va);
        auto spa = vm.hostPhysIfMapped(gpa);
        ASSERT_TRUE(spa.has_value());
        EXPECT_EQ(walk.leaf->translate(va), *spa);
    }
}

TEST_F(VirtFixture, NestedLineEnablesEndToEndCoalescing)
{
    // Guest allocates contiguous 2MB pages; the host backs them with
    // THS 2MB pages allocated contiguously too. The nested walk's line
    // must expose neighbours with *system* physical contiguity.
    Vm vm(hostMm, vmParams(), &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);
    VAddr base = guest.mmap(64 * MiB);
    for (VAddr va = base; va < base + 16 * MiB; va += PageBytes2M) {
        guest.touch(va);
        source.walk(va, false); // sets guest A bits, backs the EPT
    }

    auto walk = source.walk(base, false);
    ASSERT_FALSE(walk.pageFault());
    ASSERT_EQ(walk.lineGranularity, PageSize::Size2M);
    unsigned present = 0, contiguous = 0;
    PAddr anchor = walk.leaf->pbase;
    VAddr vanchor = walk.leaf->vbase;
    for (const auto &slot : walk.line) {
        if (!slot.present)
            continue;
        present++;
        if (slot.xlate.pbase - anchor == slot.xlate.vbase - vanchor)
            contiguous++;
    }
    EXPECT_GE(present, 2u);
    EXPECT_GE(contiguous, 2u);
}

TEST(VirtMachine, ConsolidatedVmsRunAndScan)
{
    sim::VirtMachineParams params;
    params.hostMemBytes = 4 * GiB;
    params.numVms = 2;
    params.design = sim::TlbDesign::Mix;
    params.guestProc.policy = os::PagePolicy::Thp;
    sim::VirtMachine machine(params);

    for (unsigned vm = 0; vm < 2; vm++) {
        VAddr base = machine.mapArena(vm, 64 * MiB);
        auto gen = workload::makeGenerator("gups", base, 32 * MiB,
                                           7 + vm);
        auto done = machine.run(vm, *gen, 20000);
        EXPECT_EQ(done, 20000u);
        auto dist = machine.guestDistribution(vm);
        EXPECT_GT(dist.total(), 0u);
        EXPECT_GT(dist.superpageFraction(), 0.5);
        auto runs = machine.nestedContiguityRuns(vm, PageSize::Size2M);
        EXPECT_FALSE(runs.empty());
    }
    auto metrics = machine.metrics();
    EXPECT_GT(metrics.totalCycles, 0.0);
}

TEST(VirtMachine, GuestMemhogReducesGuestSuperpages)
{
    sim::VirtMachineParams frag;
    frag.hostMemBytes = 4 * GiB;
    frag.numVms = 1;
    // 85% hogged: free memory sits below the compaction-willingness
    // knee, so a visible share of THS faults falls back to 4KB.
    frag.guestMemhogFraction = 0.85;
    frag.guestProc.policy = os::PagePolicy::Thp;
    sim::VirtMachine fragged(frag);

    sim::VirtMachineParams clean = frag;
    clean.guestMemhogFraction = 0.0;
    sim::VirtMachine pristine(clean);

    for (auto *machine : {&fragged, &pristine}) {
        VAddr base = machine->mapArena(0, 64 * MiB);
        auto &proc = machine->guestProcess(0);
        for (VAddr va = base; va < base + 64 * MiB; va += PageBytes4K)
            proc.touch(va);
    }
    EXPECT_LT(fragged.guestDistribution(0).superpageFraction(),
              pristine.guestDistribution(0).superpageFraction());
}
