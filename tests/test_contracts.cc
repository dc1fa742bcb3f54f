/**
 * @file
 * Tests for the contracts layer: MIX_EXPECT guards (including the
 * intmath domain contracts), AuditReport plumbing, the structural
 * auditors under deliberate corruption, and the differential
 * translation oracle at paranoia >= 2.
 */

#include <gtest/gtest.h>

#include "common/contracts.hh"
#include "common/intmath.hh"
#include "mem/buddy_allocator.hh"
#include "mem/phys_mem.hh"
#include "pt/page_table.hh"
#include "pt/pte.hh"
#include "pt/walker.hh"
#include "sim/machine.hh"
#include "tlb/mix.hh"
#include "workload/generator.hh"

using namespace mixtlb;

namespace mixtlb::tlb
{

/** Backdoor used only here: reach into a set and break an invariant. */
struct MixTlbTestAccess
{
    static void
    shiftAnchor(MixTlb &tlb, unsigned set, std::uint64_t delta)
    {
        tlb.sets_.at(set).front().wpbase += delta;
    }

    static void
    setBitmap(MixTlb &tlb, unsigned set, std::uint64_t bitmap)
    {
        tlb.sets_.at(set).front().bitmap = bitmap;
    }

    static void
    setDirtyFlag(MixTlb &tlb, unsigned set, bool dirty)
    {
        tlb.sets_.at(set).front().dirty = dirty;
    }
};

} // namespace mixtlb::tlb

namespace mixtlb::mem
{

/** Backdoor used only here: plant a bogus block on a free list. */
struct BuddyTestAccess
{
    static void
    injectFreeBlock(BuddyAllocator &buddy, Pfn pfn, unsigned order)
    {
        buddy.freeLists_.at(order).insert(pfn);
    }
};

} // namespace mixtlb::mem

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

/** Scoped paranoia level: the global is reset on test exit. */
struct ParanoiaGuard
{
    explicit ParanoiaGuard(unsigned level)
    {
        contracts::setParanoia(level);
    }
    ~ParanoiaGuard() { contracts::setParanoia(0); }
};

} // anonymous namespace

TEST(Contracts, ParanoiaLevelRoundTrips)
{
    EXPECT_EQ(contracts::paranoia(), 0u);
    {
        ParanoiaGuard guard(3);
        EXPECT_EQ(contracts::paranoia(), 3u);
    }
    EXPECT_EQ(contracts::paranoia(), 0u);
}

TEST(Contracts, ExpectPassesSilently)
{
    MIX_EXPECT(1 + 1 == 2);
    MIX_EXPECT(true, "never printed %d", 42);
}

TEST(ContractsDeathTest, ExpectViolationExitsWithCode1)
{
    EXPECT_EXIT(MIX_EXPECT(false, "context %d", 7),
                ::testing::ExitedWithCode(1), "contract violation");
}

TEST(Contracts, AuditReportAccumulates)
{
    contracts::AuditReport report("unit");
    EXPECT_TRUE(report.ok());
    report.fail("f.cc", 1, "first broken thing");
    report.fail("f.cc", 2, "second broken thing");
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.numViolations(), 2u);
    EXPECT_TRUE(report.mentions("second broken"));
    EXPECT_FALSE(report.mentions("absent"));
    EXPECT_NE(report.summary().find("unit"), std::string::npos);
}

TEST(ContractsDeathTest, EnforceExitsOnViolations)
{
    contracts::AuditReport report("fatal-audit");
    report.fail("f.cc", 3, "irreparable");
    EXPECT_EXIT(contracts::enforce(report),
                ::testing::ExitedWithCode(1), "fatal-audit");
}

TEST(Contracts, EnforceIsSilentWhenClean)
{
    contracts::AuditReport report;
    contracts::enforce(report); // must not exit
}

// ---------------------------------------------------------------------
// The recoverable error tier: SimError / MIX_RAISE / require().

TEST(Contracts, RaiseCarriesKindLocationAndMessage)
{
    try {
        MIX_RAISE("oom", "ran out after %d frames", 512);
        FAIL() << "MIX_RAISE did not throw";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "oom");
        EXPECT_NE(error.where().find("test_contracts.cc"),
                  std::string::npos);
        std::string what = error.what();
        EXPECT_NE(what.find("oom"), std::string::npos);
        EXPECT_NE(what.find("ran out after 512 frames"),
                  std::string::npos);
    }
}

TEST(Contracts, SimErrorIsARuntimeError)
{
    // runChecked's std::exception fallback must catch SimError
    // subclasses through the standard hierarchy.
    try {
        MIX_RAISE("deadline", "wedged");
        FAIL() << "MIX_RAISE did not throw";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("deadline"),
                  std::string::npos);
    }
}

TEST(Contracts, RequireThrowsRecoverablyOnViolations)
{
    contracts::AuditReport report("sweep-audit");
    report.fail("f.cc", 9, "broken invariant");
    try {
        contracts::require(report);
        FAIL() << "require() accepted a failing report";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "audit");
        EXPECT_NE(std::string(error.what()).find("sweep-audit"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("broken invariant"),
                  std::string::npos);
    }
}

TEST(Contracts, RequireIsSilentWhenClean)
{
    contracts::AuditReport report;
    contracts::require(report); // must not throw
}

// ---------------------------------------------------------------------
// intmath domain contracts (the old silent-UB cases).

TEST(IntMathDeathTest, FloorLog2OfZeroDies)
{
    std::uint64_t zero = 0;
    EXPECT_EXIT(floorLog2(zero), ::testing::ExitedWithCode(1),
                "floorLog2");
}

TEST(IntMathDeathTest, CeilLog2OfZeroDies)
{
    std::uint64_t zero = 0;
    EXPECT_EXIT(ceilLog2(zero), ::testing::ExitedWithCode(1),
                "ceilLog2");
}

TEST(IntMathDeathTest, DivCeilByZeroDies)
{
    std::uint64_t zero = 0;
    EXPECT_EXIT(divCeil(10, zero), ::testing::ExitedWithCode(1),
                "divCeil");
}

TEST(IntMathDeathTest, AlignToNonPowerOfTwoDies)
{
    std::uint64_t align = 12;
    EXPECT_EXIT(alignDown(100, align), ::testing::ExitedWithCode(1),
                "non-power-of-two");
    EXPECT_EXIT(alignUp(100, align), ::testing::ExitedWithCode(1),
                "non-power-of-two");
    EXPECT_EXIT(alignUp(100, 0), ::testing::ExitedWithCode(1),
                "non-power-of-two");
}

TEST(IntMathDeathTest, InvertedBitRangeDies)
{
    unsigned hi = 3, lo = 9;
    EXPECT_EXIT(bits(0xff, hi, lo), ::testing::ExitedWithCode(1),
                "not a bit range");
    EXPECT_EXIT(insertBits(0, hi, lo, 1),
                ::testing::ExitedWithCode(1), "not a bit range");
    EXPECT_EXIT(bits(0xff, 64, 0), ::testing::ExitedWithCode(1),
                "not a bit range");
}

TEST(IntMath, InDomainValuesStillWork)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(alignDown(0x1234, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1234, 0x1000), 0x2000u);
    EXPECT_EQ(bits(0xabcd, 7, 4), 0xcu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
    EXPECT_EQ(insertBits(0, 7, 4, 0xf), 0xf0u);
}

// ---------------------------------------------------------------------
// Corruption injection: each auditor must report the invariant its
// subsystem just had broken.

namespace
{

/** Figure 2 substrate for the MixTlb corruption tests. */
struct MixCorruptionFixture : ::testing::Test
{
    mem::PhysMem mem{8 * GiB};
    pt::PageTable table{mem};
    stats::StatGroup root{"test"};
    pt::Walker walker{table, &root};

    static constexpr VAddr B = 0x00400000;
    static constexpr VAddr C = 0x00600000;

    void
    SetUp() override
    {
        table.map(B, 0x00000000, PageSize::Size2M);
        table.map(C, 0x00200000, PageSize::Size2M);
    }

    std::unique_ptr<tlb::MixTlb>
    filledTlb()
    {
        tlb::MixTlbParams params;
        params.entries = 4;
        params.assoc = 2;
        auto tlb = std::make_unique<tlb::MixTlb>("mix", &root, params);
        auto walk = walker.walk(B, false);
        EXPECT_FALSE(walk.pageFault());
        tlb::FillInfo fill;
        fill.leaf = *walk.leaf;
        fill.vaddr = B;
        fill.walk = &walk;
        tlb->fill(fill); // superpage: mirrored into both sets
        return tlb;
    }
};

} // anonymous namespace

TEST_F(MixCorruptionFixture, CleanTlbAuditsClean)
{
    auto tlb = filledTlb();
    contracts::AuditReport report;
    tlb->auditSets(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(MixCorruptionFixture, CorruptMirrorAnchorIsReported)
{
    auto tlb = filledTlb();
    tlb::MixTlbTestAccess::shiftAnchor(*tlb, 1, PageBytes2M);
    contracts::AuditReport report;
    tlb->auditSets(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("mirror disagreement"))
        << report.summary();
}

TEST_F(MixCorruptionFixture, BitmapBitsOutsideWindowAreReported)
{
    auto tlb = filledTlb();
    tlb::MixTlbTestAccess::setBitmap(*tlb, 0, ~0ULL);
    contracts::AuditReport report;
    tlb->auditSets(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("membership bits")) << report.summary();
}

TEST_F(MixCorruptionFixture, StaleDirtyMirrorIsReported)
{
    auto tlb = filledTlb();
    tlb::MixTlbTestAccess::setDirtyFlag(*tlb, 0, true);
    contracts::AuditReport report;
    tlb->auditSets(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("stale dirty mirror"))
        << report.summary();
}

TEST(BuddyAudit, CleanAllocatorAuditsClean)
{
    mem::BuddyAllocator buddy(1024);
    auto a = buddy.alloc(0);
    auto b = buddy.alloc(3);
    ASSERT_TRUE(a && b);
    buddy.free(*a, 0);
    contracts::AuditReport report;
    buddy.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(BuddyAudit, InjectedDoubleFreeBreaksConservation)
{
    mem::BuddyAllocator buddy(1024);
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn);
    // The frame is allocated, but a corrupt free list claims it too.
    mem::BuddyTestAccess::injectFreeBlock(buddy, *pfn, 0);
    contracts::AuditReport report;
    buddy.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("free lists hold"))
        << report.summary();
}

TEST(BuddyAudit, MisalignedFreeBlockIsReported)
{
    mem::BuddyAllocator buddy(1024);
    auto pfn = buddy.alloc(3); // carve out room for the bogus block
    ASSERT_TRUE(pfn);
    mem::BuddyTestAccess::injectFreeBlock(buddy, *pfn + 1, 1);
    contracts::AuditReport report;
    buddy.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("naturally aligned"))
        << report.summary();
}

TEST(PhysMemAudit, FreeListAndUsageTagDisagreementIsReported)
{
    mem::PhysMem pm(64 * MiB);
    auto pfn = pm.allocFrames(0, mem::FrameUse::AppSmall);
    ASSERT_TRUE(pfn);
    contracts::AuditReport clean;
    pm.audit(clean);
    EXPECT_TRUE(clean.ok()) << clean.summary();

    mem::BuddyTestAccess::injectFreeBlock(pm.buddy(), *pfn, 0);
    contracts::AuditReport report;
    pm.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("tagged")) << report.summary();
}

TEST(PageTableAudit, CleanTableAuditsClean)
{
    mem::PhysMem pm(64 * MiB);
    pt::PageTable table(pm);
    table.map(0x200000, 0x200000, PageSize::Size2M);
    table.map(0x1000, 0x1000, PageSize::Size4K);
    contracts::AuditReport report;
    table.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PageTableAudit, CorruptLeafAlignmentIsReported)
{
    mem::PhysMem pm(64 * MiB);
    pt::PageTable table(pm);
    table.map(0x200000, 0x200000, PageSize::Size2M);
    auto pte_addr = table.leafPteAddr(0x200000);
    ASSERT_TRUE(pte_addr);
    // Nudge the frame field: the 2MB leaf now points 4KB into a block.
    pm.write64(*pte_addr, pm.read64(*pte_addr) + PageBytes4K);
    contracts::AuditReport report;
    table.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("misaligned")) << report.summary();
}

TEST(PageTableAudit, AliasedSubtreeIsReported)
{
    mem::PhysMem pm(64 * MiB);
    pt::PageTable table(pm);
    table.map(0x1000, 0x1000, PageSize::Size4K);
    // Plant a second root slot pointing back at the root itself.
    pm.write64(table.root() + 8, pt::pte::make(table.root(), {}, false));
    contracts::AuditReport report;
    table.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("reachable twice")) << report.summary();
}

TEST(PageTableAudit, PhantomLeafBreaksMappingCount)
{
    mem::PhysMem pm(64 * MiB);
    pt::PageTable table(pm);
    table.map(0x1000, 0x1000, PageSize::Size4K);
    // Forge a present leaf the table never accounted for, right next
    // to the legitimate one (same leaf-level table, slot 4).
    auto pte_addr = table.leafPteAddr(0x1000);
    ASSERT_TRUE(pte_addr);
    pm.write64(*pte_addr + 8 * 3,
               pt::pte::make(0x8000, {}, false));
    contracts::AuditReport report;
    table.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("numMappings")) << report.summary();
}

// ---------------------------------------------------------------------
// The differential oracle: a paranoia-2 run cross-checks every
// translation against the reference map walk and counts the checks.

TEST(Oracle, NativeMillionAccessAgreement)
{
    ParanoiaGuard guard(2);
    sim::MachineParams params;
    params.memBytes = 1 * GiB;
    params.design = sim::TlbDesign::Mix;
    params.proc.policy = os::PagePolicy::Thp;
    params.seed = 11;
    sim::Machine machine(params);

    const std::uint64_t footprint = 192 * MiB;
    VAddr base = machine.mapArena(footprint);
    machine.warmup(base, footprint);
    auto gen = workload::makeGenerator("graph500", base, footprint, 11);
    const std::uint64_t refs = 1000000;
    EXPECT_EQ(machine.run(*gen, refs), refs);
    // Every access (and every warmup touch) went through the oracle; a
    // single disagreement would have exited fatally above.
    EXPECT_GE(machine.tlbs().oracleCheckCount(),
              static_cast<double>(refs));
}

TEST(Oracle, NestedTranslationAgreement)
{
    ParanoiaGuard guard(2);
    sim::VirtMachineParams params;
    params.hostMemBytes = 512 * MiB;
    params.numVms = 1;
    params.design = sim::TlbDesign::Mix;
    params.seed = 13;
    sim::VirtMachine machine(params);

    const std::uint64_t footprint = 64 * MiB;
    VAddr base = machine.mapArena(0, footprint);
    machine.warmup(0, base, footprint);
    auto gen = workload::makeGenerator("memcached", base, footprint, 13);
    const std::uint64_t refs = 100000;
    EXPECT_EQ(machine.run(0, *gen, refs), refs);
}

TEST(Oracle, CountsNothingAtLowParanoia)
{
    sim::MachineParams params;
    params.memBytes = 256 * MiB;
    params.design = sim::TlbDesign::Split;
    sim::Machine machine(params);
    VAddr base = machine.mapArena(16 * MiB);
    machine.warmup(base, 16 * MiB);
    EXPECT_EQ(machine.tlbs().oracleCheckCount(), 0.0);
}
