/**
 * @file
 * The native workloads: `resident` and `walk-heavy` (one sim::Machine
 * per configuration) and `multiprog` (sim::MultiMachine).
 *
 * A traced resident/walk-heavy unit does not use sim::Machine: it
 * assembles the same machine from public parts (os::Process,
 * cache::CacheHierarchy, sim::makeCpuL1/L2, tlb::TlbHierarchy and a
 * tlb::NativeWalkSource behind a timing decorator) and replays the
 * references one TlbHierarchy::access() and one CacheHierarchy::access()
 * at a time, so TLB and data-cache time can be told apart. Machine::run
 * uses the fused translateBatch() instead; both are bit-identical in
 * every modeled statistic, which main.cc checks by comparing the two
 * stat-tree dumps.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "bench.hh"
#include "common/contracts.hh"
#include "os/process.hh"
#include "probe.hh"
#include "sim/machine.hh"
#include "sim/multi_machine.hh"
#include "sim/sweep.hh"
#include "tlb/walk_source.hh"
#include "workload/generator.hh"

namespace perfbench
{

using namespace mixtlb;

cache::HierarchyParams
scaledCaches()
{
    cache::HierarchyParams params;
    params.llc = {"llc", 2 * MiB, 16, CacheLineBytes, 40};
    return params;
}

Counts &
Counts::operator+=(const Counts &o)
{
    refs += o.refs;
    xlatCycles += o.xlatCycles;
    walks += o.walks;
    l1Hits += o.l1Hits;
    l2Hits += o.l2Hits;
    walkAccesses += o.walkAccesses;
    l1Fills += o.l1Fills;
    l2Fills += o.l2Fills;
    invalidations += o.invalidations;
    l1dMisses += o.l1dMisses;
    l2Misses += o.l2Misses;
    llcMisses += o.llcMisses;
    llcHits += o.llcHits;
    return *this;
}

Counts
Counts::operator-(const Counts &o) const
{
    Counts d = *this;
    d.refs -= o.refs;
    d.xlatCycles -= o.xlatCycles;
    d.walks -= o.walks;
    d.l1Hits -= o.l1Hits;
    d.l2Hits -= o.l2Hits;
    d.walkAccesses -= o.walkAccesses;
    d.l1Fills -= o.l1Fills;
    d.l2Fills -= o.l2Fills;
    d.invalidations -= o.invalidations;
    d.l1dMisses -= o.l1dMisses;
    d.l2Misses -= o.l2Misses;
    d.llcMisses -= o.llcMisses;
    d.llcHits -= o.llcHits;
    return d;
}

Counts
tlbCounts(const tlb::TlbHierarchy &hier)
{
    Counts c;
    c.refs = hier.accessCount();
    c.xlatCycles = hier.translationCycleCount();
    c.walks = hier.walkCount();
    c.l1Hits = hier.l1HitCount();
    c.l2Hits = hier.l2HitCount();
    c.walkAccesses = hier.walkAccessCount();
    c.l1Fills = hier.l1().fillCount();
    c.l2Fills = hier.l2().fillCount();
    c.invalidations =
        hier.l1().invalidationCount() + hier.l2().invalidationCount();
    return c;
}

Counts
cacheCounts(const stats::StatGroup &root)
{
    Counts c;
    c.l1dMisses = root.value("caches.l1d.misses");
    c.l2Misses = root.value("caches.l2.misses");
    c.llcMisses = root.value("caches.llc.misses");
    c.llcHits = root.value("caches.llc.hits");
    return c;
}

Value
countsJson(const Counts &c)
{
    auto out = Value::object();
    out["refs"] = c.refs;
    out["translation_cycles"] = c.xlatCycles;
    out["walks"] = c.walks;
    out["l1_hits"] = c.l1Hits;
    out["l2_hits"] = c.l2Hits;
    out["walk_accesses"] = c.walkAccesses;
    out["l1_fills"] = c.l1Fills;
    out["l2_fills"] = c.l2Fills;
    out["invalidations"] = c.invalidations;
    out["l1d_misses"] = c.l1dMisses;
    out["l2_misses"] = c.l2Misses;
    out["llc_misses"] = c.llcMisses;
    out["llc_hits"] = c.llcHits;
    return out;
}

double
faultCount(const stats::StatGroup &root, const std::string &proc)
{
    return root.value(proc + ".faults_4k") +
           root.value(proc + ".faults_2m") +
           root.value(proc + ".faults_1g");
}

std::string
dumpHash(const stats::StatGroup &root)
{
    std::ostringstream text;
    root.dump(text);
    std::vector<std::string> lines;
    std::istringstream in(text.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a
    for (const auto &line : lines) {
        for (unsigned char ch : line + "\n") {
            hash ^= ch;
            hash *= 1099511628211ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)hash);
    return buf;
}

namespace
{

/** One native machine configuration of a unit. */
struct NativeCase
{
    std::string label;
    sim::TlbDesign design;
    os::PagePolicy policy;
    std::uint64_t memBytes;
    std::uint64_t footprint;
    /** Generators replayed one after the other on the warmed machine. */
    std::vector<const char *> gens;
    /** References per generator. */
    std::uint64_t refs;
};

/** Reference batch and maintenance cadence of sim::Machine::run. */
constexpr std::uint64_t CheckPeriod = 1024;
/** Batches summed into one span record. */
constexpr std::uint64_t SpanRefs = 64 * 1024;

/** LRU-probe updates before each configuration of an untraced unit. */
constexpr std::uint64_t CaseProbeOps = 250000;

/** Running totals of a unit's host timings. */
struct Timings
{
    double construct = 0, warmup = 0, measure = 0, refs = 0;
    double start = steadySeconds();
    double wall = 0;
    /** Time in probes, and probe rates weighted by the time they cover. */
    double probing = 0, lruSeconds = 0, probedSeconds = 0;

    void stop() { wall = since(start) - probing; }

    Value
    json() const
    {
        auto out = Value::object();
        out["wall_s"] = wall;
        if (probedSeconds > 0)
            out["lru_mops"] = lruSeconds / probedSeconds;
        out["construct_s"] = construct;
        out["warmup_s"] = warmup;
        out["setup_s"] = construct + warmup;
        out["measure_s"] = measure;
        out["refs"] = refs;
        return out;
    }
};

/**
 * Scope of one configuration of an untraced unit: a short LRU probe
 * (src/probe.hh) runs first, and the unit reports the probe rates
 * weighted by the time of the configuration each preceded, so run.py
 * can scale the unit to a reference host speed. The probes' own time
 * is left out of the unit's wall time. A traced unit is not probed.
 */
class ProbedCase
{
  public:
    ProbedCase(Timings &t, bool traced) : t_(t), on_(!traced)
    {
        if (!on_)
            return;
        const double p0 = steadySeconds();
        lru_ = probeLru(CaseProbeOps);
        start_ = steadySeconds();
        t_.probing += start_ - p0;
    }

    ~ProbedCase()
    {
        if (!on_)
            return;
        const double seconds = since(start_);
        t_.lruSeconds += lru_ * seconds;
        t_.probedSeconds += seconds;
    }

  private:
    Timings &t_;
    bool on_;
    double lru_ = 0, start_ = 0;
};

void
recordSetup(Value &configs, const std::string &label,
            const stats::StatGroup &root)
{
    auto setup = Value::object();
    setup["faults"] = faultCount(root, "proc");
    setup["thp_fallbacks"] = root.value("proc.thp_fallbacks");
    configs[label + "/setup"] = std::move(setup);
}

sim::MachineParams
machineParams(const NativeCase &c, std::uint64_t seed)
{
    sim::MachineParams params;
    params.name = sim::designName(c.design);
    params.memBytes = c.memBytes;
    params.design = c.design;
    params.proc.policy = c.policy;
    params.seed = seed;
    params.caches = scaledCaches();
    return params;
}

/** The untraced path: sim::Machine, exactly as the figure benches. */
void
runPlain(const NativeCase &c, std::uint64_t seed, Timings &t,
         Value &configs, Value &dumps)
{
    double t0 = steadySeconds();
    sim::Machine machine(machineParams(c, seed));
    t.construct += since(t0);

    t0 = steadySeconds();
    VAddr base = machine.mapArena(c.footprint);
    machine.warmup(base, c.footprint);
    t.warmup += since(t0);
    recordSetup(configs, c.label, machine.root());
    machine.startMeasurement();

    Counts before;
    for (std::size_t g = 0; g < c.gens.size(); g++) {
        auto gen = workload::makeGenerator(
            c.gens[g], base, c.footprint, sim::sweepPointSeed(seed, g));
        t0 = steadySeconds();
        machine.run(*gen, c.refs);
        t.measure += since(t0);
        Counts now = tlbCounts(machine.tlbs());
        now += cacheCounts(machine.root());
        Counts seg = now - before;
        t.refs += seg.refs;
        configs[c.label + "/" + c.gens[g]] = countsJson(seg);
        before = now;
    }
    auto metrics = machine.metrics();
    configs[c.label + "/cycles"]["total_cycles"] = metrics.totalCycles;
    dumps[c.label] = dumpHash(machine.root());
}

/**
 * sim::Machine rebuilt from its public parts with a timing walk
 * source. Members are declared in sim::Machine's construction order.
 */
struct TracedMachine
{
    explicit TracedMachine(const sim::MachineParams &params)
        : root(params.name), mem(params.memBytes),
          mm(mem, &root,
             [&params] {
                 os::CompactionParams compaction;
                 compaction.seed = params.seed * 0x9e3779b9ULL + 17;
                 return compaction;
             }()),
          memhog(mm, params.memhogUnmovableShare),
          caches(params.caches, &root),
          proc(mm, params.proc, &root),
          native(
              proc.pageTable(), &root,
              [this](VAddr va, bool store) {
                  return proc.touch(va, store) !=
                         os::TouchResult::OutOfMemory;
              },
              sim::walkerScanLines(params.design),
              pt::PwcParams{params.pwcEntries}),
          timed(native)
    {
        const pt::PageTable *table = &proc.pageTable();
        // sim::Machine passes makeCpuL1/L2 as call arguments; build L2
        // first so the stat groups register in the same order.
        auto l2 = sim::makeCpuL2(params.design, &root, table, params.scale);
        auto l1 = sim::makeCpuL1(params.design, &root, table, params.scale);
        hier = std::make_unique<tlb::TlbHierarchy>(
            "tlb", &root, std::move(l1), std::move(l2), timed, caches,
            params.tlbLatency);
        proc.addInvalidateListener([this](VAddr vbase, PageSize size) {
            hier->invalidatePage(vbase, size);
        });
    }

    stats::StatGroup root;
    mem::PhysMem mem;
    os::MemoryManager mm;
    os::Memhog memhog;
    cache::CacheHierarchy caches;
    os::Process proc;
    tlb::NativeWalkSource native;
    TimedWalkSource timed;
    std::unique_ptr<tlb::TlbHierarchy> hier;
    double dataCycles = 0;
};

/** Flush the per-reference tallies of a span window. */
struct Tallies
{
    Tally gen, tlb, cache, maintain;

    void
    flush(SpanLog &log, std::int64_t parent, const char *phase,
          const std::string &config, TimedWalkSource &timed)
    {
        std::int64_t id =
            log.flush("tlb.access", parent, phase, config, tlb);
        log.flush("pt.walk", id, phase, config, timed.walks);
        log.flush("os.fault", id, phase, config, timed.faults);
        log.flush("workload.next_batch", parent, phase, config, gen);
        log.flush("cache.access", parent, phase, config, cache);
        log.flush("os.maintain", parent, phase, config, maintain);
    }
};

void
runTraced(const NativeCase &c, std::uint64_t seed, SpanLog &log,
          Timings &t, Value &configs, Value &dumps)
{
    const sim::MachineParams params = machineParams(c, seed);
    double t0 = steadySeconds();
    std::unique_ptr<TracedMachine> m;
    {
        Scoped span(&log, "sim.construct", -1, "setup", c.label);
        m = std::make_unique<TracedMachine>(params);
    }
    t.construct += since(t0);

    t0 = steadySeconds();
    VAddr base = m->proc.mmap(c.footprint);
    {
        Scoped span(&log, "sim.warmup", -1, "setup", c.label);
        Tallies tallies;
        std::uint64_t steps = 0;
        for (std::uint64_t off = 0; off < c.footprint;
             off += PageBytes4K) {
            const std::uint64_t start = ticks();
            auto result = m->hier->access(base + off, true);
            tallies.tlb.add(start, ticks());
            if (!result.ok) {
                MIX_RAISE("oom", "traced warmup ran out of memory at "
                          "offset %llu", (unsigned long long)off);
            }
            if (++steps % SpanRefs == 0)
                tallies.flush(log, span.id(), "setup", c.label, m->timed);
        }
        tallies.flush(log, span.id(), "setup", c.label, m->timed);
    }
    t.warmup += since(t0);
    recordSetup(configs, c.label, m->root);
    m->root.resetStats(); // sim::Machine::startMeasurement()
    m->dataCycles = 0;

    Counts before;
    MemRef batch[CheckPeriod];
    for (std::size_t g = 0; g < c.gens.size(); g++) {
        auto gen = workload::makeGenerator(
            c.gens[g], base, c.footprint, sim::sweepPointSeed(seed, g));
        t0 = steadySeconds();
        {
            Scoped span(&log, "sim.run", -1, "measure", c.label);
            Tallies tallies;
            std::uint64_t done = 0;
            bool oom = false;
            while (done < c.refs && !oom) {
                const auto chunk = static_cast<std::size_t>(
                    std::min<std::uint64_t>(CheckPeriod, c.refs - done));
                std::uint64_t start = ticks();
                gen->nextBatch(batch, chunk);
                tallies.gen.add(start, ticks());
                std::size_t i = 0;
                for (; i < chunk; i++) {
                    const bool store = batch[i].type == AccessType::Write;
                    start = ticks();
                    auto result = m->hier->access(batch[i].vaddr, store);
                    const std::uint64_t mid = ticks();
                    tallies.tlb.add(start, mid);
                    if (!result.ok) {
                        oom = true;
                        break;
                    }
                    m->dataCycles += static_cast<double>(
                        m->caches.access(result.paddr, store));
                    tallies.cache.add(mid, ticks());
                }
                done += i;
                if (!oom && done % CheckPeriod == 0) {
                    start = ticks();
                    m->proc.maintain();
                    tallies.maintain.add(start, ticks());
                }
                if (done % SpanRefs == 0 || done == c.refs || oom)
                    tallies.flush(log, span.id(), "measure", c.label,
                                  m->timed);
            }
        }
        t.measure += since(t0);
        Counts now = tlbCounts(*m->hier);
        now += cacheCounts(m->root);
        Counts seg = now - before;
        t.refs += seg.refs;
        configs[c.label + "/" + c.gens[g]] = countsJson(seg);
        before = now;
    }
    auto metrics = perf::computeMetrics(
        static_cast<std::uint64_t>(before.refs),
        m->hier->translationCycleCount(), m->dataCycles);
    configs[c.label + "/cycles"]["total_cycles"] = metrics.totalCycles;
    dumps[c.label] = dumpHash(m->root);
    Scoped span(&log, "sim.teardown", -1, "teardown", c.label);
    m.reset();
}

/** One unit's host timings, modeled values and stat-dump hashes. */
struct UnitRecord
{
    Timings t;
    Value configs = Value::object();
    Value dumps = Value::object();
};

/**
 * Run @p body on this thread and turn what it recorded into the unit's
 * report. A simulator error propagates to the caller, which reports it.
 */
Value
runRecorded(const std::function<void(UnitRecord &)> &body)
{
    UnitRecord rec;
    body(rec);
    rec.t.stop();
    auto out = Value::object();
    out["timing"] = rec.t.json();
    out["configs"] = std::move(rec.configs);
    out["dumps"] = std::move(rec.dumps);
    return out;
}

Value
nativeUnit(const std::vector<NativeCase> &cases, const UnitContext &ctx)
{
    return runRecorded([&](UnitRecord &rec) {
        for (const auto &c : cases) {
            ProbedCase probe(rec.t, ctx.log != nullptr);
            if (ctx.log)
                runTraced(c, ctx.seed, *ctx.log, rec.t, rec.configs,
                          rec.dumps);
            else
                runPlain(c, ctx.seed, rec.t, rec.configs, rec.dumps);
        }
    });
}

} // anonymous namespace

Value
residentUnit(const UnitContext &ctx)
{
    // bench_hotpath's five designs and reference mix: a 64MB arena
    // that every design's TLBs cover, so almost nothing walks.
    std::vector<NativeCase> cases;
    for (auto design : {sim::TlbDesign::Split, sim::TlbDesign::Mix,
                        sim::TlbDesign::MixColt,
                        sim::TlbDesign::HashRehash,
                        sim::TlbDesign::Skew}) {
        cases.push_back({sim::designName(design), design,
                         os::PagePolicy::Thp, 512 * MiB, 64 * MiB,
                         {"gups", "streamcluster"}, 1500000});
    }
    return nativeUnit(cases, ctx);
}

Value
walkHeavyUnit(const UnitContext &ctx)
{
    // Arenas far beyond every design's TLB reach: gups walks on about
    // a third of its references even with 2MB pages.
    std::vector<NativeCase> cases;
    const struct
    {
        const char *name;
        os::PagePolicy policy;
        std::uint64_t footprint;
    } policies[] = {{"THS", os::PagePolicy::Thp, 4 * GiB},
                    {"4KB", os::PagePolicy::SmallOnly, 2 * GiB}};
    for (const auto &p : policies) {
        for (auto design : {sim::TlbDesign::Split, sim::TlbDesign::Mix}) {
            cases.push_back({std::string(p.name) + "/" +
                                 sim::designName(design),
                             design, p.policy, 8 * GiB, p.footprint,
                             {"gups", "mcf"}, 250000});
        }
    }
    return nativeUnit(cases, ctx);
}

namespace
{

void
runMultiprog(const UnitContext &ctx, UnitRecord &rec)
{
    constexpr unsigned Procs = 4;
    constexpr std::uint64_t Footprint = 256 * MiB;
    constexpr std::uint64_t RefsPerProc = 400000;
    const char *mix[] = {"gups", "streamcluster"};

    Timings &t = rec.t;
    for (auto policy : {sim::SwitchPolicy::FullFlush,
                        sim::SwitchPolicy::AsidTagged}) {
        for (auto design : {sim::TlbDesign::Split, sim::TlbDesign::Mix}) {
            ProbedCase probe(t, ctx.log != nullptr);
            const std::string label =
                std::string(sim::switchPolicyName(policy)) + "/" +
                sim::designName(design);
            sim::MultiMachineParams params;
            params.name = sim::designName(design);
            params.memBytes = 8 * GiB;
            params.quantum = 512;
            params.policy = policy;
            params.design = design;
            params.seed = ctx.seed;
            params.caches = scaledCaches();
            params.procs.assign(Procs, os::ProcessParams{});

            double t0 = steadySeconds();
            std::unique_ptr<sim::MultiMachine> machine;
            {
                Scoped span(ctx.log, "sim.construct", -1, "setup", label);
                machine = std::make_unique<sim::MultiMachine>(params);
            }
            t.construct += since(t0);

            t0 = steadySeconds();
            std::vector<VAddr> bases;
            {
                Scoped span(ctx.log, "sim.warmup", -1, "setup", label);
                for (unsigned i = 0; i < Procs; i++) {
                    bases.push_back(machine->mapArena(i, Footprint));
                    machine->warmup(i, bases[i], Footprint);
                }
            }
            t.warmup += since(t0);
            double faults = 0, fallbacks = 0;
            for (unsigned i = 0; i < Procs; i++) {
                const std::string proc = "proc" + std::to_string(i);
                faults += faultCount(machine->root(), proc);
                fallbacks +=
                    machine->root().value(proc + ".thp_fallbacks");
            }
            rec.configs[label + "/setup"]["faults"] = faults;
            rec.configs[label + "/setup"]["thp_fallbacks"] = fallbacks;
            machine->startMeasurement();
            for (unsigned i = 0; i < Procs; i++) {
                machine->attachWorkload(
                    i, workload::makeGenerator(
                           mix[i % 2], bases[i], Footprint,
                           sim::sweepPointSeed(ctx.seed, i)));
            }

            t0 = steadySeconds();
            {
                Scoped span(ctx.log, "sim.run", -1, "measure", label);
                machine->run(RefsPerProc);
            }
            t.measure += since(t0);
            Counts counts = tlbCounts(machine->tlbs());
            counts += cacheCounts(machine->root());
            t.refs += counts.refs;
            Value record = countsJson(counts);
            record["context_switches"] = machine->contextSwitches();
            record["full_flushes"] = machine->fullFlushes();
            record["total_cycles"] = machine->metrics().totalCycles;
            rec.configs[label] = std::move(record);
            rec.dumps[label] = dumpHash(machine->root());
            Scoped span(ctx.log, "sim.teardown", -1, "teardown", label);
            machine.reset();
        }
    }
}

} // anonymous namespace

Value
multiprogUnit(const UnitContext &ctx)
{
    return runRecorded([&](UnitRecord &rec) { runMultiprog(ctx, rec); });
}

} // namespace perfbench
