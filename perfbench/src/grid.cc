/**
 * @file
 * The `fig14-sweep` workload: the Figure 14 grid (MIX vs split across
 * native page-size policies, 1 and 4 consolidated VMs, and GPU
 * kernels; 46 points at 100k references) run through sim::SweepRunner.
 *
 * The grid and its point runners are defined here, not taken from
 * bench/, so that edits to the figure bench do not move the benchmark.
 * They follow bench/fig14_mix_vs_split.cc and bench/bench_common.cc as
 * of this benchmark's introduction. Virtualized points come first: they
 * take most of the grid's time, so the pool starts them before the
 * short native and GPU points (longest-first keeps the wall steady).
 */

#include <memory>
#include <vector>

#include "bench.hh"
#include "gpu/gpu_system.hh"
#include "os/memhog.hh"
#include "sim/machine.hh"
#include "sim/sweep.hh"
#include "tlb/walk_source.hh"
#include "workload/generator.hh"

namespace perfbench
{

using namespace mixtlb;

namespace
{

constexpr std::uint64_t Refs = 100000;

enum class Kind
{
    Native,
    Virt,
    Gpu
};

struct Point
{
    std::string label;
    Kind kind = Kind::Native;
    sim::TlbDesign design = sim::TlbDesign::Split;
    /** Seed-sharing configuration point: split and MIX share one. */
    std::size_t pair = 0;
    /** Generator (native, virt) or kernel (GPU) name. */
    std::string workload;
    os::PagePolicy policy = os::PagePolicy::Thp;
    std::uint64_t memBytes = 8 * GiB;
    std::uint64_t footprint = 0;
    std::uint64_t pool2m = 0, pool1g = 0;
    std::uint64_t warmStep = PageBytes4K;
    unsigned vms = 1;
};

std::vector<Point>
fig14Grid()
{
    std::vector<Point> grid;
    std::size_t pair = 0;
    auto add = [&](Point point) {
        for (auto design : {sim::TlbDesign::Split, sim::TlbDesign::Mix}) {
            Point p = point;
            p.design = design;
            p.pair = pair;
            p.label = point.label + "/" + sim::designName(design);
            grid.push_back(p);
        }
        pair++;
    };

    for (const char *workload : {"memcached", "graph500"}) {
        for (unsigned vms : {1u, 4u}) {
            Point p;
            p.kind = Kind::Virt;
            p.workload = workload;
            p.vms = vms;
            p.label = std::string("virt/") + workload + "/" +
                      std::to_string(vms) + "vm";
            add(p);
        }
    }

    const struct
    {
        const char *name;
        os::PagePolicy policy;
        std::uint64_t footprint;
    } policies[] = {
        {"4KB", os::PagePolicy::SmallOnly, 2 * GiB},
        {"2MB", os::PagePolicy::Huge2M, 4 * GiB},
        // More 1GB pages (48) than split's 4+32 dedicated entries.
        {"1GB", os::PagePolicy::Huge1G, 48 * GiB},
        {"THS", os::PagePolicy::Thp, 4 * GiB},
    };
    for (const char *workload : {"mcf", "graph500", "memcached", "gups"}) {
        for (const auto &policy : policies) {
            Point p;
            p.kind = Kind::Native;
            p.workload = workload;
            p.policy = policy.policy;
            p.footprint = policy.footprint;
            p.label = std::string("native/") + workload + "/" + policy.name;
            if (policy.policy == os::PagePolicy::Huge2M)
                p.pool2m = policy.footprint / PageBytes2M;
            if (policy.policy == os::PagePolicy::Huge1G) {
                p.pool1g = policy.footprint / PageBytes1G;
                p.memBytes = 64 * GiB;
                p.warmStep = PageBytes2M;
            }
            add(p);
        }
    }

    for (const char *kernel : {"bfs", "backprop", "kmeans"}) {
        Point p;
        p.kind = Kind::Gpu;
        p.workload = kernel;
        p.memBytes = 4 * GiB;
        p.footprint = 1 * GiB;
        p.label = std::string("gpu/") + kernel;
        add(p);
    }
    return grid;
}

/** What one point reports. */
struct PointResult
{
    Counts counts;
    double totalCycles = 0;
    double faults = 0, thpFallbacks = 0;
    double construct = 0, warmup = 0, run = 0, wall = 0;
    std::string dump;
};

/** Phase spans of one point; a null log records nothing. */
struct PointSpans
{
    enum Call
    {
        Construct,
        Warmup,
        Run,
        Teardown
    };

    SpanLog *log;
    std::int64_t parent;
    const std::string &label;
    /** Span names per Call, e.g. {"virt.construct", ...}. */
    const char *const *names;

    std::int64_t
    begin(Call call) const
    {
        static const char *const phases[] = {"setup", "setup", "measure",
                                             "teardown"};
        return log ? log->open(names[call], parent, phases[call], label)
                   : -1;
    }

    void
    end(std::int64_t id) const
    {
        if (log)
            log->close(id);
    }
};

constexpr const char *NativeSpans[] = {"sim.construct", "sim.warmup",
                                       "sim.run", "sim.teardown"};
constexpr const char *VirtSpans[] = {"virt.construct", "virt.warmup",
                                     "virt.run", "virt.teardown"};
constexpr const char *GpuSpans[] = {"gpu.construct", "gpu.warmup",
                                    "gpu.run", "gpu.teardown"};

PointResult
runNative(const Point &p, std::uint64_t seed, const PointSpans &spans)
{
    PointResult r;
    sim::MachineParams params;
    params.name = sim::designName(p.design);
    params.memBytes = p.memBytes;
    params.design = p.design;
    params.proc.policy = p.policy;
    params.proc.pool2mPages = p.pool2m;
    params.proc.pool1gPages = p.pool1g;
    params.seed = seed;
    params.caches = scaledCaches();

    double t0 = steadySeconds();
    std::unique_ptr<sim::Machine> machine;
    std::int64_t span = spans.begin(PointSpans::Construct);
    machine = std::make_unique<sim::Machine>(params);
    spans.end(span);
    r.construct = since(t0);
    t0 = steadySeconds();
    VAddr base = machine->mapArena(p.footprint);
    span = spans.begin(PointSpans::Warmup);
    machine->warmup(base, p.footprint, p.warmStep);
    spans.end(span);
    r.warmup = since(t0);
    r.faults = faultCount(machine->root(), "proc");
    r.thpFallbacks = machine->root().value("proc.thp_fallbacks");
    machine->startMeasurement();

    auto gen = workload::makeGenerator(p.workload, base, p.footprint, seed);
    t0 = steadySeconds();
    span = spans.begin(PointSpans::Run);
    machine->run(*gen, Refs);
    spans.end(span);
    r.run = since(t0);
    r.counts = tlbCounts(machine->tlbs());
    r.counts += cacheCounts(machine->root());
    r.totalCycles = machine->metrics().totalCycles;
    r.dump = dumpHash(machine->root());
    span = spans.begin(PointSpans::Teardown);
    machine.reset();
    spans.end(span);
    return r;
}

/** Footprint that leaves a guest under memory pressure (memhog). */
std::uint64_t
pressureFootprint(std::uint64_t mem_bytes, double memhog_fraction)
{
    auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * (1.0 - memhog_fraction - 0.12));
    return bytes & ~(PageBytes2M - 1);
}

PointResult
runVirt(const Point &p, std::uint64_t seed, const PointSpans &spans)
{
    constexpr double GuestMemhog = 0.2;
    PointResult r;
    sim::VirtMachineParams params;
    params.name = sim::designName(p.design);
    params.hostMemBytes = p.memBytes;
    params.numVms = p.vms;
    params.design = p.design;
    params.guestProc.policy = os::PagePolicy::Thp;
    params.guestMemhogFraction = GuestMemhog;
    params.seed = seed;
    params.caches = scaledCaches();

    double t0 = steadySeconds();
    std::unique_ptr<sim::VirtMachine> machine;
    std::int64_t span = spans.begin(PointSpans::Construct);
    machine = std::make_unique<sim::VirtMachine>(params);
    spans.end(span);
    r.construct = since(t0);

    const std::uint64_t footprint =
        pressureFootprint(p.memBytes / p.vms, GuestMemhog);
    std::vector<VAddr> bases;
    t0 = steadySeconds();
    span = spans.begin(PointSpans::Warmup);
    for (unsigned vm = 0; vm < p.vms; vm++) {
        bases.push_back(machine->mapArena(vm, footprint));
        machine->warmup(vm, bases[vm], footprint);
    }
    spans.end(span);
    r.warmup = since(t0);
    auto &root = machine->root();
    for (unsigned vm = 0; vm < p.vms; vm++) {
        const std::string guest = "guest" + std::to_string(vm);
        r.faults += faultCount(root, guest);
        r.thpFallbacks += root.value(guest + ".thp_fallbacks");
    }
    machine->startMeasurement();

    t0 = steadySeconds();
    span = spans.begin(PointSpans::Run);
    for (unsigned vm = 0; vm < p.vms; vm++) {
        auto gen = workload::makeGenerator(p.workload, bases[vm],
                                           footprint, seed + vm);
        machine->run(vm, *gen, Refs / p.vms);
    }
    spans.end(span);
    r.run = since(t0);
    for (unsigned vm = 0; vm < p.vms; vm++) {
        const std::string tlb = "tlb" + std::to_string(vm) + ".";
        const std::string guest = "vm" + std::to_string(vm) + ".";
        Counts c;
        c.refs = root.value(tlb + "accesses");
        c.xlatCycles = root.value(tlb + "translation_cycles");
        c.walks = root.value(tlb + "walks");
        c.l1Hits = root.value(tlb + "l1_hits");
        c.l2Hits = root.value(tlb + "l2_hits");
        c.walkAccesses = root.value(tlb + "walk_accesses");
        c.l1Fills = root.value(guest + "l1.fills");
        c.l2Fills = root.value(guest + "l2.fills");
        c.invalidations = root.value(guest + "l1.invalidations") +
                          root.value(guest + "l2.invalidations");
        r.counts += c;
    }
    r.counts += cacheCounts(root);
    r.totalCycles = machine->metrics().totalCycles;
    r.dump = dumpHash(root);
    span = spans.begin(PointSpans::Teardown);
    machine.reset();
    spans.end(span);
    return r;
}

PointResult
runGpu(const Point &p, std::uint64_t seed, const PointSpans &spans)
{
    constexpr unsigned Cores = 16;
    PointResult r;
    double t0 = steadySeconds();
    std::int64_t span = spans.begin(PointSpans::Construct);
    stats::StatGroup root(sim::designName(p.design));
    mem::PhysMem mem(p.memBytes);
    os::MemoryManager mm(mem, &root);
    os::Memhog hog(mm);
    os::ProcessParams proc_params;
    proc_params.policy = os::PagePolicy::Thp;
    os::Process proc(mm, proc_params, &root);
    cache::CacheHierarchy caches(scaledCaches(), &root);
    tlb::NativeWalkSource source(
        proc.pageTable(), &root,
        [&](VAddr va, bool store) {
            return proc.touch(va, store) != os::TouchResult::OutOfMemory;
        },
        sim::walkerScanLines(p.design));
    gpu::GpuParams gpu_params;
    gpu_params.numCores = Cores;
    auto l2 = sim::makeGpuL2(p.design, &root, &proc.pageTable());
    gpu::GpuSystem gpu_system(
        gpu_params, &root,
        [&](unsigned core, stats::StatGroup *parent) {
            return sim::makeGpuCoreL1(p.design, core, parent,
                                      &proc.pageTable());
        },
        l2, source, caches);
    proc.addInvalidateListener([&](VAddr vbase, PageSize size) {
        gpu_system.invalidatePage(vbase, size);
    });
    spans.end(span);
    r.construct = since(t0);

    // Input upload: ascending first-touch through rotating cores.
    t0 = steadySeconds();
    VAddr base = proc.mmap(p.footprint);
    span = spans.begin(PointSpans::Warmup);
    for (VAddr va = base; va < base + p.footprint; va += PageBytes4K)
        gpu_system.core((va >> PageShift4K) % Cores).access(va, true);
    spans.end(span);
    r.warmup = since(t0);
    r.faults = faultCount(root, "proc");
    r.thpFallbacks = root.value("proc.thp_fallbacks");
    root.resetStats();

    std::vector<std::unique_ptr<workload::TraceGenerator>> gens;
    for (unsigned core = 0; core < Cores; core++) {
        gens.push_back(workload::makeGenerator(p.workload, base,
                                               p.footprint, seed + core));
    }
    t0 = steadySeconds();
    span = spans.begin(PointSpans::Run);
    gpu_system.run(gens, Refs);
    spans.end(span);
    r.run = since(t0);
    for (unsigned core = 0; core < Cores; core++) {
        Counts c = tlbCounts(gpu_system.core(core));
        // The L2 TLB is shared: count its fills and invalidations once.
        c.l2Fills = 0;
        c.invalidations = gpu_system.core(core).l1().invalidationCount();
        r.counts += c;
    }
    r.counts.l2Fills = l2->fillCount();
    r.counts.invalidations += l2->invalidationCount();
    r.counts += cacheCounts(root);
    r.totalCycles = perf::computeMetrics(
                        static_cast<std::uint64_t>(r.counts.refs),
                        r.counts.xlatCycles, 0.0)
                        .totalCycles;
    r.dump = dumpHash(root);
    return r;
}

} // anonymous namespace

Value
fig14Unit(const UnitContext &ctx)
{
    const std::vector<Point> grid = fig14Grid();
    sim::SweepParams params;
    params.jobs = ctx.jobs;
    params.retries = 0;
    sim::SweepRunner runner(params);
    std::vector<sim::PointStatus> statuses;

    const double start = steadySeconds();
    auto results = runner.runChecked<PointResult>(
        grid.size(),
        [&](std::size_t i) {
            const Point &p = grid[i];
            const std::uint64_t seed = sim::sweepPointSeed(ctx.seed, p.pair);
            const double t0 = steadySeconds();
            Scoped point(ctx.log, "sweep.point", -1, "point", p.label);
            PointSpans spans{ctx.log, point.id(), p.label,
                             p.kind == Kind::Native ? NativeSpans
                             : p.kind == Kind::Virt ? VirtSpans
                                                    : GpuSpans};
            PointResult r = p.kind == Kind::Native ? runNative(p, seed, spans)
                            : p.kind == Kind::Virt ? runVirt(p, seed, spans)
                                                   : runGpu(p, seed, spans);
            r.wall = since(t0);
            return r;
        },
        [&](std::size_t i) {
            return sim::sweepPointSeed(ctx.seed, grid[i].pair);
        },
        statuses);
    const double wall = since(start);

    auto configs = Value::object();
    auto dumps = Value::object();
    auto points = Value::array();
    double construct = 0, warmup = 0, measure = 0, refs = 0, failed = 0;
    for (std::size_t i = 0; i < grid.size(); i++) {
        const Point &p = grid[i];
        const PointResult &r = results[i];
        auto point = Value::object();
        point["label"] = p.label;
        point["kind"] = p.kind == Kind::Native ? "native"
                        : p.kind == Kind::Virt ? "virt"
                                               : "gpu";
        point["ok"] = statuses[i].ok;
        if (!statuses[i].ok) {
            failed++;
            point["error"] = statuses[i].errorKind + ": " +
                             statuses[i].errorMessage;
            points.push(std::move(point));
            continue;
        }
        point["wall_s"] = r.wall;
        point["setup_s"] = r.construct + r.warmup;
        point["run_s"] = r.run;
        points.push(std::move(point));
        construct += r.construct;
        warmup += r.warmup;
        measure += r.run;
        refs += r.counts.refs;

        Value record = countsJson(r.counts);
        record["total_cycles"] = r.totalCycles;
        configs[p.label] = std::move(record);
        configs[p.label + "/setup"]["faults"] = r.faults;
        configs[p.label + "/setup"]["thp_fallbacks"] = r.thpFallbacks;
        dumps[p.label] = r.dump;
    }

    // One grid: timings are the grid's wall time and point sums.
    auto grid_timing = Value::object();
    grid_timing["wall_s"] = wall;
    grid_timing["construct_s"] = construct;
    grid_timing["warmup_s"] = warmup;
    grid_timing["setup_s"] = construct + warmup;
    grid_timing["measure_s"] = measure;
    grid_timing["refs"] = refs;
    auto out = Value::object();
    out["timing"] = std::move(grid_timing);
    out["jobs"] = runner.jobs();
    out["failed_points"] = failed;
    out["points"] = std::move(points);
    out["configs"] = std::move(configs);
    out["dumps"] = std::move(dumps);
    return out;
}

} // namespace perfbench
