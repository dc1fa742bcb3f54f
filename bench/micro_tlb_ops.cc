/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot operations:
 * TLB lookups/fills for each design and full MMU accesses. These guard
 * the simulator's own performance (host ns/op), not the modelled
 * cycles.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/simd.hh"
#include "mem/phys_mem.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "sim/configs.hh"
#include "sim/machine.hh"
#include "tlb/mix.hh"

using namespace mixtlb;

namespace
{

constexpr std::uint64_t GiB = 1024ULL * 1024 * 1024;

/**
 * Probe-kernel microbenchmarks: firstEqual over lane sizes spanning
 * the TLB/cache geometries (8-way cache set, 16-way LLC, 64-entry
 * fully-assoc sweep), with the needle at the lane's end — a
 * full-length scan, the probe's worst case.
 */
void
BM_SimdFirstEqual(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint64_t> lane(n);
    for (std::size_t i = 0; i < n; ++i)
        lane[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
    const std::uint64_t needle = n > 0 ? lane[n - 1] : 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            simd::firstEqual(lane.data(), n, needle));
}
BENCHMARK(BM_SimdFirstEqual)->Arg(8)->Arg(16)->Arg(64);

void
BM_SimdL0RunLength(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    constexpr VAddr lo = 0x00400000;
    std::vector<MemRef> refs(n);
    for (std::size_t i = 0; i < n; ++i) {
        refs[i].vaddr = lo + (i * 64) % PageBytes4K;
        refs[i].type = AccessType::Read;
    }
    if (n > 0)
        refs[n - 1].vaddr = lo + PageBytes4K; // run breaks at the tail
    for (auto _ : state)
        benchmark::DoNotOptimize(
            simd::l0RunLength(refs.data(), n, lo, false));
}
BENCHMARK(BM_SimdL0RunLength)->Arg(64)->Arg(1024);

void
BM_MixTlbLookupHit(benchmark::State &state)
{
    mem::PhysMem mem(1 * GiB);
    pt::PageTable table(mem);
    stats::StatGroup root("bm");
    pt::Walker walker(table, &root);
    table.map(0x00400000, 0, PageSize::Size2M);
    tlb::MixTlbParams params;
    params.entries = 96;
    params.assoc = 6;
    tlb::MixTlb tlb("mix", &root, params);
    auto walk = walker.walk(0x00400000, false);
    tlb::FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.walk = &walk;
    tlb.fill(fill);
    VAddr va = 0x00400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(va, false));
        va = 0x00400000 + ((va + 4096) & 0x1fffff);
    }
}
BENCHMARK(BM_MixTlbLookupHit);

void
BM_MixTlbSuperpageFill(benchmark::State &state)
{
    mem::PhysMem mem(1 * GiB);
    pt::PageTable table(mem);
    stats::StatGroup root("bm");
    pt::Walker walker(table, &root);
    for (int i = 0; i < 8; i++)
        table.map(0x00400000 + i * PageBytes2M, i * PageBytes2M,
                  PageSize::Size2M);
    tlb::MixTlbParams params;
    params.entries = 544;
    params.assoc = 8;
    params.mode = tlb::CoalesceMode::Length;
    tlb::MixTlb tlb("mix", &root, params);
    auto walk = walker.walk(0x00400000, false);
    tlb::FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.walk = &walk;
    for (auto _ : state)
        tlb.fill(fill); // all-set mirroring, the costliest fill path
}
BENCHMARK(BM_MixTlbSuperpageFill);

void
BM_PageTableWalk(benchmark::State &state)
{
    mem::PhysMem mem(1 * GiB);
    pt::PageTable table(mem);
    stats::StatGroup root("bm");
    pt::Walker walker(table, &root);
    for (VAddr va = 0; va < 64 * PageBytes4K; va += PageBytes4K)
        table.map(va, 0x10000000 + va, PageSize::Size4K);
    VAddr va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(walker.walk(va, false));
        va = (va + PageBytes4K) % (64 * PageBytes4K);
    }
}
BENCHMARK(BM_PageTableWalk);

void
BM_MachineAccess(benchmark::State &state)
{
    auto design = static_cast<sim::TlbDesign>(state.range(0));
    sim::MachineParams params;
    params.name = "bm";
    params.memBytes = 2 * GiB;
    params.design = design;
    params.proc.policy = os::PagePolicy::Thp;
    sim::Machine machine(params);
    VAddr base = machine.mapArena(256ULL << 20);
    machine.warmup(base, 256ULL << 20);
    Rng rng(1);
    for (auto _ : state) {
        VAddr va = base + rng.nextBounded(256ULL << 20);
        benchmark::DoNotOptimize(machine.tlbs().access(va, false));
    }
}
BENCHMARK(BM_MachineAccess)
    ->Arg(static_cast<int>(sim::TlbDesign::Split))
    ->Arg(static_cast<int>(sim::TlbDesign::Mix));

} // anonymous namespace

BENCHMARK_MAIN();
