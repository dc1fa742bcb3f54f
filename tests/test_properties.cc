/**
 * @file
 * Property-based tests (parameterized sweeps) over the TLB design
 * space. The central invariant for every design and geometry: a TLB
 * hit must return EXACTLY the page table's translation — regardless of
 * page-size mix, coalescing, mirroring, duplication, invalidation, or
 * migration history.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>

#include "cache/cache.hh"
#include "common/intmath.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "mem/phys_mem.hh"
#include "os/memhog.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "sim/machine.hh"
#include "tlb/colt.hh"
#include "tlb/hash_rehash.hh"
#include "tlb/hierarchy.hh"
#include "tlb/mix.hh"
#include "tlb/set_assoc.hh"
#include "tlb/skew.hh"
#include "tlb/split.hh"
#include "workload/generator.hh"

using namespace mixtlb;
using namespace mixtlb::tlb;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

/** A mapped mixed-page-size address space to fuzz against. */
struct Arena
{
    mem::PhysMem mem{8 * GiB};
    pt::PageTable table{mem};
    stats::StatGroup root{"prop"};
    pt::Walker walker{table, &root, 8};
    std::vector<VAddr> pages; ///< one representative VA per page

    /**
     * @param pa_offset shifts every frame (a multiple of 1GB, so the
     *        1GB pages stay aligned): arenas built with different
     *        offsets map the same virtual pages to different frames.
     */
    explicit Arena(std::uint64_t seed, PAddr pa_offset = 0)
    {
        Rng rng(seed);
        // 4KB pages, some contiguous.
        PAddr pa = 0x10000000 + pa_offset;
        for (int i = 0; i < 64; i++) {
            VAddr va = 0x00010000 + i * PageBytes4K;
            table.map(va, pa, PageSize::Size4K);
            pa += rng.chance(0.7) ? PageBytes4K : 3 * PageBytes4K;
            pages.push_back(va);
        }
        // 2MB superpages: one long contiguous run plus scattered ones.
        pa = 0x40000000 + pa_offset;
        for (int i = 0; i < 24; i++) {
            VAddr va = 0x40000000 + static_cast<VAddr>(i) * PageBytes2M;
            table.map(va, pa, PageSize::Size2M);
            pa += rng.chance(0.8) ? PageBytes2M : 5 * PageBytes2M;
            pages.push_back(va);
        }
        // 1GB pages.
        table.map(8 * GiB, 1 * GiB + pa_offset, PageSize::Size1G);
        table.map(9 * GiB, 2 * GiB + pa_offset, PageSize::Size1G);
        pages.push_back(8 * GiB);
        pages.push_back(9 * GiB);
    }

    VAddr
    randomAddr(Rng &rng)
    {
        VAddr page = pages[rng.nextBounded(pages.size())];
        auto size = table.translate(page)->size;
        return page + rng.nextBounded(pageBytes(size));
    }
};

/**
 * Fuzz one TLB: random lookups; misses are walked and filled; every
 * hit must agree with the page table; random invalidations and
 * re-maps are thrown in.
 */
void
fuzzAgainstPageTable(BaseTlb &tlb, Arena &arena, std::uint64_t seed,
                     int iterations = 20000)
{
    Rng rng(seed);
    for (int i = 0; i < iterations; i++) {
        VAddr va = arena.randomAddr(rng);
        bool store = rng.chance(0.3);
        auto result = tlb.lookup(va, store);
        auto truth = arena.table.translate(va);
        ASSERT_TRUE(truth.has_value());
        if (result.hit) {
            ASSERT_EQ(result.xlate.translate(va), truth->translate(va))
                << std::hex << "va=0x" << va;
        } else if (tlb.supports(truth->size)) {
            auto walk = arena.walker.walk(va, store);
            ASSERT_FALSE(walk.pageFault());
            FillInfo fill;
            fill.leaf = *walk.leaf;
            fill.vaddr = va;
            fill.walk = &walk;
            tlb.fill(fill);
            auto again = tlb.lookup(va, store);
            ASSERT_TRUE(again.hit) << std::hex << "va=0x" << va;
            ASSERT_EQ(again.xlate.translate(va), truth->translate(va));
        }
        // Occasional shootdowns keep the invalidation paths honest.
        if (rng.chance(0.002)) {
            VAddr page = arena.pages[rng.nextBounded(
                arena.pages.size())];
            auto size = arena.table.translate(page)->size;
            tlb.invalidate(page, size);
            ASSERT_FALSE(tlb.lookup(page, false).hit);
        }
    }
}

/**
 * ASID isolation under tag collisions: three address spaces map the
 * same virtual pages to different frames, so every probe that matched
 * a tag without confirming its ASID would return another space's
 * frame. The op stream switches spaces, fills, marks dirty, shoots
 * down pages of any space and drops whole spaces; every hit must agree
 * with the page table of the space active at that moment, and a
 * dropped space must miss on every page.
 */
void
fuzzAcrossAsids(BaseTlb &tlb, Arena *const (&spaces)[3],
                std::uint64_t seed, int iterations = 20000)
{
    Rng rng(seed);
    Asid active = 0;
    tlb.setAsid(active);
    const auto pagesMiss = [&](Asid asid) {
        tlb.setAsid(asid);
        for (VAddr page : spaces[asid]->pages) {
            ASSERT_FALSE(tlb.lookup(page, false).hit)
                << std::hex << "asid=" << asid << " page=0x" << page;
        }
        tlb.setAsid(active);
    };
    for (int i = 0; i < iterations; i++) {
        if (rng.chance(0.02)) {
            active = static_cast<Asid>(rng.nextBounded(3));
            tlb.setAsid(active);
        }
        Arena &space = *spaces[active];
        VAddr va = space.randomAddr(rng);
        bool store = rng.chance(0.3);
        auto result = tlb.lookup(va, store);
        auto truth = space.table.translate(va);
        ASSERT_TRUE(truth.has_value());
        if (result.hit) {
            ASSERT_EQ(result.xlate.translate(va), truth->translate(va))
                << std::hex << "asid=" << active << " va=0x" << va;
        } else if (tlb.supports(truth->size)) {
            auto walk = space.walker.walk(va, store);
            ASSERT_FALSE(walk.pageFault());
            FillInfo fill;
            fill.leaf = *walk.leaf;
            fill.vaddr = va;
            fill.walk = &walk;
            tlb.fill(fill);
        }
        if (rng.chance(0.05))
            tlb.markDirty(va);
        if (rng.chance(0.004)) {
            const auto owner = static_cast<Asid>(rng.nextBounded(3));
            VAddr page = space.pages[rng.nextBounded(space.pages.size())];
            auto size = space.table.translate(page)->size;
            tlb.invalidate(page, size, owner);
            if (owner == active) {
                ASSERT_FALSE(tlb.lookup(page, false).hit);
            }
        }
        if (rng.chance(0.001)) {
            const auto gone = static_cast<Asid>(rng.nextBounded(3));
            tlb.invalidateAsid(gone);
            pagesMiss(gone);
        }
    }
}

/**
 * Soundness of the entry dirty bit: a store that hits an entry
 * reporting entryDirty skips the dirty micro-op, so entryDirty may
 * only be reported for a page whose PTE Dirty bit is set. The op
 * stream follows the hierarchy's store protocol (a clean store hit
 * sets the PTE's D bit, then markDirty; a store miss walks with
 * is_store) and keeps a mix of clean and dirty pages by cleaning
 * random pages the way writeback does: the mapping is reinstalled with
 * A/D clear and the page is shot down. Every hit of a clean page must
 * then report a clean entry, whatever neighbour, mirror or bundle
 * member was dirtied meanwhile.
 */
void
fuzzEntryDirty(BaseTlb &tlb, Arena &arena, std::uint64_t seed,
               int iterations = 20000)
{
    Rng rng(seed);
    const auto expectSound = [&](VAddr va, const TlbLookup &result) {
        auto truth = arena.table.translate(va);
        ASSERT_TRUE(truth.has_value());
        ASSERT_EQ(result.xlate.translate(va), truth->translate(va))
            << std::hex << "va=0x" << va;
        ASSERT_TRUE(!result.entryDirty || truth->dirty)
            << std::hex << "clean page reported dirty: va=0x" << va;
    };
    for (int i = 0; i < iterations; i++) {
        VAddr va = arena.randomAddr(rng);
        bool store = rng.chance(0.1);
        auto result = tlb.lookup(va, store);
        if (result.hit) {
            ASSERT_NO_FATAL_FAILURE(expectSound(va, result));
            if (store && !result.entryDirty) {
                arena.table.setDirty(va);
                tlb.markDirty(va);
            }
        } else if (tlb.supports(arena.table.translate(va)->size)) {
            auto walk = arena.walker.walk(va, store);
            ASSERT_FALSE(walk.pageFault());
            FillInfo fill;
            fill.leaf = *walk.leaf;
            fill.vaddr = va;
            fill.walk = &walk;
            tlb.fill(fill);
        }
        if (rng.chance(0.1)) {
            VAddr page = arena.pages[rng.nextBounded(
                arena.pages.size())];
            auto truth = *arena.table.translate(page);
            ASSERT_TRUE(arena.table.unmap(page));
            arena.table.map(page, truth.pbase, truth.size, truth.perms);
            tlb.invalidate(page, truth.size);
        }
    }
    for (VAddr page : arena.pages) {
        auto result = tlb.lookup(page, false);
        if (result.hit)
            ASSERT_NO_FATAL_FAILURE(expectSound(page, result));
    }
}

/** Three address spaces over the same virtual pages, 2GB apart. */
struct AsidSpaces
{
    Arena a0;
    Arena a1;
    Arena a2;
    Arena *const spaces[3] = {&a0, &a1, &a2};

    explicit AsidSpaces(std::uint64_t seed)
        : a0(seed), a1(seed, 2 * GiB), a2(seed, 4 * GiB)
    {}
};

struct MixGeometry
{
    std::uint64_t entries;
    unsigned assoc;
    CoalesceMode mode;
    unsigned colt4k;
    bool alignment;
};

class MixProperty : public ::testing::TestWithParam<MixGeometry>
{
};

/** e.g. `e96w6_bitmap_colt1_aligned`. */
std::string
mixGeometryName(const ::testing::TestParamInfo<MixGeometry> &info)
{
    const MixGeometry &g = info.param;
    return "e" + std::to_string(g.entries) + "w" +
           std::to_string(g.assoc) + "_" +
           (g.mode == CoalesceMode::Bitmap ? "bitmap" : "length") +
           "_colt" + std::to_string(g.colt4k) + "_" +
           (g.alignment ? "aligned" : "floating");
}

/** An integer parameter's instance named by its value, e.g. `4`. */
template <typename T>
std::string
numberName(const ::testing::TestParamInfo<T> &info)
{
    return std::to_string(info.param);
}

/** designName() with every character gtest rejects mapped to '_'. */
std::string
designTestName(const ::testing::TestParamInfo<sim::TlbDesign> &info)
{
    std::string name = sim::designName(info.param);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // anonymous namespace

TEST_P(MixProperty, HitsAlwaysAgreeWithPageTable)
{
    const auto &geometry = GetParam();
    Arena arena(42);
    MixTlbParams params;
    params.entries = geometry.entries;
    params.assoc = geometry.assoc;
    params.mode = geometry.mode;
    params.colt4k = geometry.colt4k;
    params.alignmentRestricted = geometry.alignment;
    MixTlb tlb("mix", &arena.root, params);
    fuzzAgainstPageTable(tlb, arena, 7);
}

TEST_P(MixProperty, HitsAgreeWithActiveAsidPageTable)
{
    const auto &geometry = GetParam();
    AsidSpaces asids(45);
    MixTlbParams params;
    params.entries = geometry.entries;
    params.assoc = geometry.assoc;
    params.mode = geometry.mode;
    params.colt4k = geometry.colt4k;
    params.alignmentRestricted = geometry.alignment;
    MixTlb tlb("mix", &asids.a0.root, params);
    fuzzAcrossAsids(tlb, asids.spaces, 31);
}

TEST_P(MixProperty, EntryDirtyImpliesDirtyPte)
{
    const auto &geometry = GetParam();
    Arena arena(47);
    MixTlbParams params;
    params.entries = geometry.entries;
    params.assoc = geometry.assoc;
    params.mode = geometry.mode;
    params.colt4k = geometry.colt4k;
    params.alignmentRestricted = geometry.alignment;
    MixTlb tlb("mix", &arena.root, params);
    fuzzEntryDirty(tlb, arena, 53);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MixProperty,
    ::testing::Values(
        MixGeometry{4, 2, CoalesceMode::Bitmap, 1, true},
        MixGeometry{4, 2, CoalesceMode::Length, 1, true},
        MixGeometry{96, 6, CoalesceMode::Bitmap, 1, true},
        MixGeometry{96, 6, CoalesceMode::Bitmap, 4, true},
        MixGeometry{544, 8, CoalesceMode::Length, 1, true},
        MixGeometry{544, 8, CoalesceMode::Length, 4, true},
        MixGeometry{544, 8, CoalesceMode::Length, 1, false},
        MixGeometry{96, 6, CoalesceMode::Bitmap, 1, false},
        MixGeometry{128, 2, CoalesceMode::Bitmap, 1, true},
        MixGeometry{64, 64, CoalesceMode::Length, 1, true}),
    mixGeometryName);

namespace
{

class MixSuperIndexProperty : public ::testing::TestWithParam<unsigned>
{
};

} // anonymous namespace

TEST_P(MixSuperIndexProperty, AblationModeStaysCorrect)
{
    Arena arena(43);
    MixTlbParams params;
    params.entries = 96;
    params.assoc = GetParam();
    params.superpageIndexBits = true;
    MixTlb tlb("mixsp", &arena.root, params);
    fuzzAgainstPageTable(tlb, arena, 11);
}

TEST_P(MixSuperIndexProperty, EntryDirtyImpliesDirtyPte)
{
    Arena arena(48);
    MixTlbParams params;
    params.entries = 96;
    params.assoc = GetParam();
    params.superpageIndexBits = true;
    MixTlb tlb("mixsp", &arena.root, params);
    fuzzEntryDirty(tlb, arena, 59);
}

INSTANTIATE_TEST_SUITE_P(Assocs, MixSuperIndexProperty,
                         ::testing::Values(2u, 4u, 6u),
                         numberName<unsigned>);

namespace
{

/** All non-MIX designs behind the same fuzz. */
enum class Family
{
    Split,
    HashRehash,
    HashRehashPred,
    Skew,
    SkewPred,
    Colt4K,
};

std::string
familyName(const ::testing::TestParamInfo<Family> &info)
{
    switch (info.param) {
      case Family::Split: return "split";
      case Family::HashRehash: return "hash_rehash";
      case Family::HashRehashPred: return "hash_rehash_pred";
      case Family::Skew: return "skew";
      case Family::SkewPred: return "skew_pred";
      case Family::Colt4K: return "colt4k";
    }
    return "unknown";
}

class FamilyProperty : public ::testing::TestWithParam<Family>
{
  public:
    static std::unique_ptr<BaseTlb>
    build(Family family, stats::StatGroup *root)
    {
        switch (family) {
          case Family::Split: {
            auto split = std::make_unique<SplitTlb>("t", root);
            split->addComponent(std::make_unique<SetAssocTlb>(
                "t4k", root, 64, 4, PageSize::Size4K));
            split->addComponent(std::make_unique<SetAssocTlb>(
                "t2m", root, 32, 4, PageSize::Size2M));
            split->addComponent(std::make_unique<FullyAssocTlb>(
                "t1g", root, 4,
                std::initializer_list<PageSize>{PageSize::Size1G}));
            return split;
          }
          case Family::HashRehash:
          case Family::HashRehashPred: {
            HashRehashParams params;
            params.entries = 96;
            params.assoc = 6;
            params.usePredictor = family == Family::HashRehashPred;
            return std::make_unique<HashRehashTlb>("t", root, params);
          }
          case Family::Skew:
          case Family::SkewPred: {
            SkewTlbParams params;
            params.setsPerWay = 16;
            params.usePredictor = family == Family::SkewPred;
            return std::make_unique<SkewTlb>("t", root, params);
          }
          case Family::Colt4K:
            return std::make_unique<ColtTlb>("t", root, 64, 4,
                                             PageSize::Size4K, 4);
        }
        return nullptr;
    }
};

} // anonymous namespace

TEST_P(FamilyProperty, HitsAlwaysAgreeWithPageTable)
{
    Arena arena(44);
    auto tlb = build(GetParam(), &arena.root);
    fuzzAgainstPageTable(*tlb, arena, 13);
}

TEST_P(FamilyProperty, HitsAgreeWithActiveAsidPageTable)
{
    AsidSpaces asids(46);
    auto tlb = build(GetParam(), &asids.a0.root);
    fuzzAcrossAsids(*tlb, asids.spaces, 37);
}

TEST_P(FamilyProperty, EntryDirtyImpliesDirtyPte)
{
    Arena arena(49);
    auto tlb = build(GetParam(), &arena.root);
    fuzzEntryDirty(*tlb, arena, 61);
}

INSTANTIATE_TEST_SUITE_P(Designs, FamilyProperty,
                         ::testing::Values(Family::Split,
                                           Family::HashRehash,
                                           Family::HashRehashPred,
                                           Family::Skew,
                                           Family::SkewPred,
                                           Family::Colt4K),
                         familyName);

namespace
{

/** End-to-end invariant under OS churn: migration + shootdowns. */
class MigrationProperty : public ::testing::TestWithParam<int>
{
};

} // anonymous namespace

TEST_P(MigrationProperty, TranslationsSurviveCompactionChurn)
{
    // A THS process under heavy fragmentation; compaction migrates
    // pages mid-run while we fuzz translations through a MIX
    // hierarchy-like flow at the page-table level.
    mem::PhysMem mem(1 * GiB);
    stats::StatGroup root("prop");
    os::MemoryManager mm(mem, &root,
                         os::CompactionParams{
                             .maxCandidates = 64,
                             .deferOnFailure = true,
                             .minFreeFraction = 0.02,
                             .fullEffortFreeFraction = 0.05,
                             .seed = static_cast<std::uint64_t>(
                                 GetParam())});
    os::Memhog hog(mm, 0.0);
    hog.fragment(0.4, GetParam());
    os::ProcessParams proc_params;
    proc_params.policy = os::PagePolicy::SmallOnly;
    os::Process proc(mm, proc_params, &root);
    VAddr base = proc.mmap(128 * MiB);
    for (VAddr va = base; va < base + 64 * MiB; va += PageBytes4K)
        proc.touch(va);

    Rng rng(GetParam());
    for (int i = 0; i < 200; i++) {
        // Force compaction (migrates process pages).
        mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge, true);
        // Every page must still translate, and A/D state is preserved.
        for (int j = 0; j < 50; j++) {
            VAddr va = base + rng.nextBounded(64 * MiB);
            auto xlate = proc.pageTable().translate(va);
            ASSERT_TRUE(xlate.has_value());
            ASSERT_EQ(mem.frameUse(xlate->pfn4k()),
                      mem::FrameUse::AppSmall);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationProperty,
                         ::testing::Values(1, 2, 3), numberName<int>);

namespace
{

std::string
statDump(stats::StatGroup &group)
{
    std::ostringstream os;
    group.dump(os);
    return os.str();
}

/**
 * Bit-exactness of the L0 MRU translation filter: a full machine run
 * with the filter on must leave every modeled statistic identical to
 * the same run with it off. The dump covers both TLB levels, the
 * walker, the caches, and the OS, so any replay that diverged from
 * the full path — a missed counter, a stale latency, a skipped dirty
 * micro-op — shows up as a dump mismatch.
 */
class L0FilterProperty
    : public ::testing::TestWithParam<sim::TlbDesign>
{
  public:
    static std::string
    runOnce(sim::TlbDesign design, bool filter_on)
    {
        tlb::setL0FilterEnabled(filter_on);
        sim::MachineParams params;
        params.name = "m";
        params.memBytes = 512 * MiB;
        params.design = design;
        params.seed = 5;
        sim::Machine machine(params);
        VAddr base = machine.mapArena(32 * MiB);
        machine.warmup(base, 32 * MiB);
        machine.startMeasurement();
        for (const char *workload : {"gups", "streamcluster"}) {
            auto gen = workload::makeGenerator(workload, base,
                                               32 * MiB, 7);
            machine.run(*gen, 100000);
        }
        std::string dump = statDump(machine.root());
        tlb::setL0FilterEnabled(true);
        return dump;
    }
};

} // anonymous namespace

TEST_P(L0FilterProperty, FilterOnOffStatsIdentical)
{
    const sim::TlbDesign design = GetParam();
    EXPECT_EQ(runOnce(design, true), runOnce(design, false));
}

INSTANTIATE_TEST_SUITE_P(Designs, L0FilterProperty,
                         ::testing::Values(sim::TlbDesign::Split,
                                           sim::TlbDesign::Mix,
                                           sim::TlbDesign::MixColt,
                                           sim::TlbDesign::HashRehash,
                                           sim::TlbDesign::Skew),
                         designTestName);

/**
 * The probe kernels (src/common/simd.hh, DESIGN.md section 13) against
 * naive loops written here, on adversarial collision-heavy lanes of
 * every ragged size 0..65.
 */
TEST(SimdKernels, FirstEqualMatchesScalarOnAdversarialLanes)
{
    Rng rng(0x51D0);
    for (int iter = 0; iter < 4000; ++iter) {
        const std::size_t n = rng.nextBounded(66);
        // A 4-value tag pool makes duplicates (and thus non-first
        // matches the kernel must NOT return) the common case.
        std::uint64_t pool[4];
        for (auto &p : pool)
            p = rng.next();
        std::vector<std::uint64_t> lane(n);
        for (auto &t : lane)
            t = pool[rng.nextBounded(4)];
        const std::uint64_t needle =
            rng.chance(0.8) ? pool[rng.nextBounded(4)] : rng.next();
        std::size_t want = simd::npos;
        for (std::size_t i = 0; i < n && want == simd::npos; ++i) {
            if (lane[i] == needle)
                want = i;
        }
        ASSERT_EQ(simd::firstEqual(lane.data(), n, needle), want)
            << "n=" << n;
    }
}

TEST(SimdKernels, L0RunLengthMatchesScalar)
{
    Rng rng(0x51D2);
    for (int iter = 0; iter < 4000; ++iter) {
        const std::size_t n = rng.nextBounded(66);
        const VAddr lo = (rng.next() >> 12) << 12;
        std::vector<MemRef> refs(n);
        for (auto &ref : refs) {
            if (rng.chance(0.8)) {
                ref.vaddr = lo + rng.nextBounded(PageBytes4K);
            } else if (rng.chance(0.5)) {
                // Boundary adversaries: one byte out on either side.
                ref.vaddr = rng.chance(0.5) ? lo - 1 : lo + PageBytes4K;
            } else {
                ref.vaddr = rng.next();
            }
            ref.type = rng.chance(0.3) ? AccessType::Write
                                       : AccessType::Read;
        }
        for (bool stores_ok : {false, true}) {
            std::size_t want = 0;
            while (want < n && refs[want].vaddr >= lo &&
                   refs[want].vaddr < lo + PageBytes4K &&
                   (stores_ok || refs[want].type == AccessType::Read))
                ++want;
            ASSERT_EQ(simd::l0RunLength(refs.data(), n, lo, stores_ok),
                      want)
                << "n=" << n << " stores_ok=" << stores_ok;
        }
    }
}

namespace
{

/**
 * One cache level as the textbook model: per set, a list of line tags
 * in recency order (front = MRU), installing at the front on a miss
 * and dropping the back when the set overflows.
 */
struct NaiveLruLevel
{
    unsigned lineShift;
    unsigned assoc;
    std::vector<std::vector<std::uint64_t>> sets;

    explicit NaiveLruLevel(const cache::CacheParams &params)
        : lineShift(floorLog2(params.lineBytes)), assoc(params.assoc),
          sets(params.sizeBytes / params.lineBytes / params.assoc)
    {}

    bool
    access(PAddr paddr)
    {
        const std::uint64_t tag = paddr >> lineShift;
        auto &set = sets[tag % sets.size()];
        const auto it = std::find(set.begin(), set.end(), tag);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        set.insert(set.begin(), tag);
        if (set.size() > assoc)
            set.pop_back();
        return hit;
    }

    void
    flush()
    {
        for (auto &set : sets)
            set.clear();
    }
};

} // anonymous namespace

/**
 * The cache tag windows (probed with simd::firstEqual, shifted in
 * place for the MRU move) against NaiveLruLevel, level by level, on a
 * stream that mixes a small hot pool with lines that all fall in one
 * set of every level — enough of them to overflow the 16-way LLC set,
 * whose set count (24576) takes the non-power-of-two index path.
 */
TEST(SimdKernels, CacheWindowsMatchNaiveLru)
{
    const cache::HierarchyParams params;
    stats::StatGroup root("cacheprop");
    cache::CacheHierarchy caches(params, &root);
    NaiveLruLevel l1(params.l1), l2(params.l2), llc(params.llc);
    // Lines this far apart share a set at every level.
    const std::uint64_t conflict_stride =
        std::lcm(std::lcm(l1.sets.size(), l2.sets.size()),
                 llc.sets.size()) *
        CacheLineBytes;
    Rng rng(0x51D4);
    for (int i = 0; i < 100000; ++i) {
        const PAddr paddr =
            rng.chance(0.6)
                ? (rng.nextBounded(1 << 12) << 6) +
                      rng.nextBounded(CacheLineBytes)
                : rng.nextBounded(40) * conflict_stride;
        cache::HitLevel want = cache::HitLevel::Memory;
        if (l1.access(paddr))
            want = cache::HitLevel::L1;
        else if (l2.access(paddr))
            want = cache::HitLevel::L2;
        else if (llc.access(paddr))
            want = cache::HitLevel::LLC;
        ASSERT_EQ(caches.accessLevel(paddr, rng.chance(0.3)), want)
            << std::hex << "i=" << i << " paddr=0x" << paddr;
        if (rng.chance(0.0005)) {
            caches.flush();
            l1.flush();
            l2.flush();
            llc.flush();
        }
    }
}

namespace
{

/**
 * TlbHierarchy::translateBatch promises to be bit-identical to one
 * access() per reference: its L0 run-scan (simd::l0RunLength) charges
 * runs of filter replays in bulk, and a batch boundary may cut a run
 * anywhere. Two identically seeded, warmed machines replay the same
 * gups + streamcluster references, one in batches of random ragged
 * sizes and one reference at a time; translation cycles and the full
 * stat dump must match.
 */
class BatchProperty : public ::testing::TestWithParam<sim::TlbDesign>
{
  public:
    static std::unique_ptr<sim::Machine>
    warmMachine(sim::TlbDesign design, VAddr *base)
    {
        sim::MachineParams params;
        params.name = "m";
        params.memBytes = 512 * MiB;
        params.design = design;
        params.seed = 5;
        auto machine = std::make_unique<sim::Machine>(params);
        *base = machine->mapArena(32 * MiB);
        machine->warmup(*base, 32 * MiB);
        machine->startMeasurement();
        return machine;
    }
};

} // anonymous namespace

TEST_P(BatchProperty, TranslateBatchMatchesPerReferenceAccess)
{
    const sim::TlbDesign design = GetParam();
    VAddr base = 0;
    auto batched = warmMachine(design, &base);
    VAddr single_base = 0;
    auto single = warmMachine(design, &single_base);
    ASSERT_EQ(base, single_base);

    std::vector<MemRef> refs;
    for (const char *workload : {"gups", "streamcluster"}) {
        auto gen = workload::makeGenerator(workload, base, 32 * MiB, 7);
        for (int i = 0; i < 100000; ++i)
            refs.push_back(gen->next());
    }

    Rng rng(0xBA7C);
    Cycles batched_cycles = 0;
    for (std::size_t i = 0; i < refs.size();) {
        const std::size_t n = std::min<std::size_t>(
            1 + rng.nextBounded(600), refs.size() - i);
        const auto br =
            batched->tlbs().translateBatch({refs.data() + i, n}, false);
        ASSERT_TRUE(br.ok);
        ASSERT_EQ(br.done, n);
        batched_cycles += br.cycles;
        i += n;
    }
    Cycles single_cycles = 0;
    for (const MemRef &ref : refs) {
        const auto result = single->tlbs().access(
            ref.vaddr, ref.type == AccessType::Write);
        ASSERT_TRUE(result.ok);
        single_cycles += result.cycles;
    }
    EXPECT_EQ(batched_cycles, single_cycles);
    EXPECT_EQ(statDump(batched->root()), statDump(single->root()));
}

INSTANTIATE_TEST_SUITE_P(Designs, BatchProperty,
                         ::testing::Values(sim::TlbDesign::Split,
                                           sim::TlbDesign::Mix,
                                           sim::TlbDesign::MixColt,
                                           sim::TlbDesign::HashRehash,
                                           sim::TlbDesign::Skew),
                         designTestName);
