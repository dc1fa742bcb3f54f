/**
 * @file
 * Tests for the GPU system: per-core L1 TLBs over a shared L2 and a
 * shared walker, warp-interleaved execution, and GPU-wide shootdowns.
 */

#include <gtest/gtest.h>

#include "common/contracts.hh"
#include "common/fault.hh"
#include "gpu/gpu_system.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "sim/configs.hh"
#include "tlb/walk_source.hh"

using namespace mixtlb;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

struct GpuFixture : ::testing::Test
{
    mem::PhysMem mem{4 * GiB};
    stats::StatGroup root{"test"};
    os::MemoryManager mm{mem, &root};
    os::Process proc;
    cache::CacheHierarchy caches{cache::HierarchyParams{}, &root};
    tlb::NativeWalkSource source;

    GpuFixture()
        : proc(mm, []{
              os::ProcessParams params;
              params.policy = os::PagePolicy::Thp;
              return params;
          }(), &root),
          source(proc.pageTable(), &root, [this](VAddr va, bool st) {
              return proc.touch(va, st) != os::TouchResult::OutOfMemory;
          })
    {}

    std::unique_ptr<gpu::GpuSystem>
    makeGpu(sim::TlbDesign design, unsigned cores = 4)
    {
        gpu::GpuParams params;
        params.numCores = cores;
        auto l2 = sim::makeGpuL2(design, &root, &proc.pageTable());
        auto system = std::make_unique<gpu::GpuSystem>(
            params, &root,
            [&, design](unsigned core, stats::StatGroup *parent) {
                return sim::makeGpuCoreL1(design, core, parent,
                                          &proc.pageTable());
            },
            l2, source, caches);
        // OS translation changes must shoot down every core, or
        // reclaim leaves stale entries behind.
        proc.addInvalidateListener(
            [gpu = system.get()](VAddr vbase, PageSize size) {
                gpu->invalidatePage(vbase, size);
            });
        return system;
    }

    std::vector<std::unique_ptr<workload::TraceGenerator>>
    makeGenerators(const std::string &name, VAddr base,
                   std::uint64_t bytes, unsigned cores)
    {
        std::vector<std::unique_ptr<workload::TraceGenerator>> gens;
        for (unsigned core = 0; core < cores; core++)
            gens.push_back(workload::makeGenerator(name, base, bytes,
                                                   1000 + core));
        return gens;
    }
};

} // anonymous namespace

TEST_F(GpuFixture, RunsWarpInterleavedAcrossCores)
{
    auto gpu_system = makeGpu(sim::TlbDesign::Mix);
    VAddr base = proc.mmap(128 * MiB);
    auto gens = makeGenerators("bfs", base, 64 * MiB, 4);
    Cycles cycles = gpu_system->run(gens, 40000);
    EXPECT_GT(cycles, 0u);
    // Every core saw roughly total/4 references.
    for (unsigned core = 0; core < 4; core++) {
        EXPECT_NEAR(gpu_system->core(core).accessCount(), 10000.0, 64.0)
            << core;
    }
}

TEST_F(GpuFixture, SharedL2ServesAllCores)
{
    auto gpu_system = makeGpu(sim::TlbDesign::Mix);
    VAddr base = proc.mmap(128 * MiB);
    // Core 0 warms the shared L2; later cores reuse its fills.
    auto gens = makeGenerators("pathfinder", base, 8 * MiB, 4);
    gpu_system->run(gens, 80000);
    double l2_hits = 0;
    for (unsigned core = 1; core < 4; core++)
        l2_hits += gpu_system->core(core).l2HitCount();
    EXPECT_GT(l2_hits, 0.0);
}

TEST_F(GpuFixture, ShootdownHitsEveryCore)
{
    auto gpu_system = makeGpu(sim::TlbDesign::Mix);
    VAddr base = proc.mmap(128 * MiB);
    auto gens = makeGenerators("pathfinder", base, 8 * MiB, 4);
    gpu_system->run(gens, 20000);
    auto leaf = proc.pageTable().translate(base);
    ASSERT_TRUE(leaf.has_value());
    gpu_system->invalidatePage(leaf->vbase, leaf->size);
    for (unsigned core = 0; core < 4; core++) {
        auto result = gpu_system->core(core).l1().lookup(base, false);
        EXPECT_FALSE(result.hit) << core;
    }
}

TEST_F(GpuFixture, MixBeatsSplitOnGpuWorkloads)
{
    // The headline GPU claim, in miniature: identical footprints and
    // reference streams, THS paging; MIX should miss less than split.
    VAddr base = proc.mmap(512 * MiB);

    // Initialization sweep (the kernel's input upload): ascending
    // first-touch hands contiguous frames and warms the TLB state.
    auto warm = [&](gpu::GpuSystem &system) {
        system.warmup(base, 256 * MiB);
    };

    auto split_gpu = makeGpu(sim::TlbDesign::Split);
    warm(*split_gpu);
    auto gens_a = makeGenerators("bfs", base, 256 * MiB, 4);
    Cycles split_cycles = split_gpu->run(gens_a, 100000);

    auto mix_gpu = makeGpu(sim::TlbDesign::Mix);
    warm(*mix_gpu);
    auto gens_b = makeGenerators("bfs", base, 256 * MiB, 4);
    Cycles mix_cycles = mix_gpu->run(gens_b, 100000);

    EXPECT_LT(mix_cycles, split_cycles);
}

TEST_F(GpuFixture, DeadlineInterruptsTheRun)
{
    // Each replay is one 32-reference warp, so the poll must count
    // references across warps. Armed after the upload, which polls too.
    auto gpu_system = makeGpu(sim::TlbDesign::Mix);
    VAddr base = proc.mmap(128 * MiB);
    gpu_system->warmup(base, 64 * MiB);
    auto gens = makeGenerators("bfs", base, 64 * MiB, 4);
    fault::FaultScope scope(fault::FaultConfig{}, 1, 0, 1e-6);
    try {
        gpu_system->run(gens, 200000);
        ADD_FAILURE() << "the run outlived a 1us deadline";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "deadline");
    }
}
