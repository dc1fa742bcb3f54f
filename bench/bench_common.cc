#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "gpu/gpu_system.hh"
#include "os/memhog.hh"
#include "tlb/walk_source.hh"

namespace mixtlb::bench
{

void
addProcessStats(const stats::StatGroup &root,
                const std::vector<std::string> &procs, RunResult &result)
{
    for (const auto &prefix : procs) {
        for (std::size_t i = 0; i < LifecycleStats.size(); i++) {
            result.lifecycle[i] +=
                root.value(prefix + "." + LifecycleStats[i]);
        }
    }
}

void
summarize(const stats::StatGroup &root,
          const std::vector<std::string> &procs,
          const std::vector<const tlb::TlbHierarchy *> &hiers,
          RunResult &result)
{
    addProcessStats(root, procs, result);
    double accesses = 0, l1_hits = 0, walks = 0, walk_accesses = 0;
    for (const auto *hier : hiers) {
        accesses += hier->accessCount();
        l1_hits += hier->l1HitCount();
        walks += hier->walkCount();
        walk_accesses += hier->walkAccessCount();
    }
    result.l1MissRate = 1.0 - l1_hits / accesses;
    result.walksPerKref = 1000.0 * walks / accesses;
    result.accessesPerWalk = walks > 0 ? walk_accesses / walks : 0.0;
}

RunResult
runGpu(const GpuRunConfig &config)
{
    stats::StatGroup root(sim::designName(config.design));
    mem::PhysMem mem(config.memBytes);
    os::MemoryManager mm(mem, &root);
    os::Memhog hog(mm);
    if (config.memhog > 0)
        hog.fragment(config.memhog, config.seed);

    os::ProcessParams proc_params;
    proc_params.policy = os::PagePolicy::Thp;
    os::Process proc(mm, proc_params, &root);
    cache::CacheHierarchy caches(scaledCaches(), &root);
    tlb::NativeWalkSource source(
        proc.pageTable(), &root,
        [&](VAddr va, bool store) {
            return proc.touch(va, store) != os::TouchResult::OutOfMemory;
        },
        sim::walkerScanLines(config.design));

    gpu::GpuParams gpu_params;
    gpu_params.numCores = config.cores;
    auto l2 = sim::makeGpuL2(config.design, &root, &proc.pageTable());
    gpu::GpuSystem gpu_system(
        gpu_params, &root,
        [&](unsigned core, stats::StatGroup *parent) {
            return sim::makeGpuCoreL1(config.design, core, parent,
                                      &proc.pageTable());
        },
        l2, source, caches);

    // OS translation changes (migration, demotion, reclaim) must shoot
    // down every shader core's TLBs, or stale entries survive into the
    // differential oracle.
    proc.addInvalidateListener([&](VAddr vbase, PageSize size) {
        gpu_system.invalidatePage(vbase, size);
    });

    VAddr base = proc.mmap(config.footprintBytes);
    gpu_system.warmup(base, config.footprintBytes);
    const std::vector<std::string> procs{"proc"};
    RunResult result;
    addProcessStats(root, procs, result);
    root.resetStats();

    std::vector<std::unique_ptr<workload::TraceGenerator>> gens;
    for (unsigned core = 0; core < config.cores; core++) {
        gens.push_back(workload::makeGenerator(config.kernel, base,
                                               config.footprintBytes,
                                               config.seed + core));
    }
    gpu_system.run(gens, config.refs);

    if (contracts::paranoia() >= 1) {
        contracts::AuditReport report("gpu");
        mem.audit(report);
        proc.audit(report);
        contracts::require(report);
    }

    std::vector<const tlb::TlbHierarchy *> hiers;
    double translation_cycles = 0, accesses = 0;
    for (unsigned core = 0; core < config.cores; core++) {
        const auto &hier = gpu_system.core(core);
        hiers.push_back(&hier);
        translation_cycles += hier.translationCycleCount();
        accesses += hier.accessCount();
    }
    summarize(root, procs, hiers, result);
    result.metrics = perf::computeMetrics(
        static_cast<std::uint64_t>(accesses), translation_cycles, 0.0);
    result.energy = sim::sumEnergyInputs(hiers, config.design,
                                         result.metrics.totalCycles);
    result.distribution = os::scanDistribution(proc.pageTable());
    return result;
}

RunResult
runMulti(const MultiRunConfig &config)
{
    sim::MultiMachineParams params;
    params.name = sim::designName(config.design);
    params.memBytes = config.memBytes;
    params.quantum = config.quantum;
    params.policy = config.policy;
    params.design = config.design;
    params.seed = config.seed;
    params.caches = scaledCaches();
    for (unsigned i = 0; i < config.numProcs; i++) {
        os::ProcessParams pp;
        pp.policy = config.procPolicy;
        params.procs.push_back(pp);
    }
    sim::MultiMachine machine(params);

    // "gups,stream" with 4 processes runs gups, stream, gups, stream.
    std::vector<std::string> workloads;
    for (std::size_t pos = 0; pos <= config.mix.size();) {
        std::size_t comma = config.mix.find(',', pos);
        if (comma == std::string::npos)
            comma = config.mix.size();
        if (comma > pos)
            workloads.push_back(config.mix.substr(pos, comma - pos));
        pos = comma + 1;
    }
    fatal_if(workloads.empty(), "empty workload mix '%s'",
             config.mix.c_str());

    std::vector<VAddr> bases;
    std::vector<std::string> procs;
    for (unsigned i = 0; i < config.numProcs; i++) {
        bases.push_back(
            machine.mapArena(i, config.footprintPerProc));
        machine.warmup(i, bases[i], config.footprintPerProc);
        procs.push_back("proc" + std::to_string(i));
    }
    RunResult result;
    addProcessStats(machine.root(), procs, result);
    machine.startMeasurement();
    for (unsigned i = 0; i < config.numProcs; i++) {
        machine.attachWorkload(
            i, workload::makeGenerator(
                   workloads[i % workloads.size()], bases[i],
                   config.footprintPerProc,
                   sim::sweepPointSeed(config.seed, i)));
    }
    machine.run(config.refsPerProc);

    summarize(machine.root(), procs, {&machine.tlbs()}, result);
    result.metrics = machine.metrics();
    result.energy = machine.energyInputs();
    result.distribution = machine.distribution(0);
    for (unsigned i = 0; i < config.numProcs; i++)
        result.procL1MissRates.push_back(machine.procL1MissRate(i));
    result.contextSwitches = machine.contextSwitches();
    result.fullFlushes = machine.fullFlushes();
    return result;
}

std::size_t
SweepGrid::add(std::string section, std::string label,
               BenchConfig config)
{
    jobs_.push_back(SweepJob{std::move(section), std::move(label),
                             std::move(config), nextPoint_++});
    return jobs_.size() - 1;
}

std::size_t
SweepGrid::addPaired(std::size_t paired_with, std::string section,
                     std::string label, BenchConfig config)
{
    panic_if(paired_with >= jobs_.size(),
             "addPaired references job %zu of %zu", paired_with,
             jobs_.size());
    jobs_.push_back(SweepJob{std::move(section), std::move(label),
                             std::move(config),
                             jobs_[paired_with].point});
    return jobs_.size() - 1;
}

std::uint64_t
effectiveSeed(const SweepJob &job)
{
    std::uint64_t base = std::visit(
        [](const auto &config) { return config.seed; }, job.config);
    return sim::sweepPointSeed(base, job.point);
}

RunResult
runJob(const SweepJob &job)
{
    SweepJob seeded = job;
    std::uint64_t seed = effectiveSeed(job);
    std::visit([seed](auto &config) { config.seed = seed; },
               seeded.config);
    return std::visit(
        [](const auto &config) -> RunResult {
            using Config = std::decay_t<decltype(config)>;
            if constexpr (std::is_same_v<Config, NativeRunConfig>)
                return runNative(config);
            else if constexpr (std::is_same_v<Config, VirtRunConfig>)
                return runVirt(config);
            else if constexpr (std::is_same_v<Config, MultiRunConfig>)
                return runMulti(config);
            else
                return runGpu(config);
        },
        seeded.config);
}

json::Value
configJson(const SweepJob &job)
{
    auto out = json::Value::object();
    std::visit(
        [&out](const auto &config) {
            using Config = std::decay_t<decltype(config)>;
            out["design"] = sim::designName(config.design);
            if constexpr (std::is_same_v<Config, NativeRunConfig>) {
                out["kind"] = "native";
                out["workload"] = config.workload;
                out["policy"] = os::pagePolicyName(config.policy);
                out["mem_bytes"] = config.memBytes;
                out["footprint_bytes"] = config.footprintBytes;
                out["refs"] = config.refs;
                out["memhog"] = config.memhog;
            } else if constexpr (std::is_same_v<Config,
                                                VirtRunConfig>) {
                out["kind"] = "virt";
                out["workload"] = config.workload;
                out["num_vms"] = config.numVms;
                out["host_mem_bytes"] = config.hostMemBytes;
                out["refs_per_vm"] = config.refsPerVm;
                out["guest_memhog"] = config.guestMemhog;
            } else if constexpr (std::is_same_v<Config,
                                                MultiRunConfig>) {
                out["kind"] = "multi";
                out["policy"] = sim::switchPolicyName(config.policy);
                out["num_procs"] = config.numProcs;
                out["quantum"] = config.quantum;
                out["mix"] = config.mix;
                out["mem_bytes"] = config.memBytes;
                out["footprint_per_proc"] = config.footprintPerProc;
                out["refs_per_proc"] = config.refsPerProc;
            } else {
                out["kind"] = "gpu";
                out["kernel"] = config.kernel;
                out["cores"] = config.cores;
                out["mem_bytes"] = config.memBytes;
                out["footprint_bytes"] = config.footprintBytes;
                out["refs"] = config.refs;
                out["memhog"] = config.memhog;
            }
        },
        job.config);
    // As a decimal string: 64-bit seeds do not survive the round trip
    // through a JSON (double) number.
    out["seed"] = std::to_string(effectiveSeed(job));
    return out;
}

namespace
{

/**
 * The one field list of a point record, in its key order. Calls
 * v.field(block, key, member) for every stored RunResult member and
 * v.derived(block, key, fn) for the write-only values computed from
 * them; v.section(block, present) guards the block only
 * multiprogrammed runs carry. resultJson() and resultFromJson() are
 * its two visitors, so each key is spelled here and nowhere else.
 */
template <class Result, class Visitor>
void
forEachField(Result &r, Visitor &&v)
{
    auto &m = r.metrics;
    v.field("metrics", "refs", m.refs);
    v.field("metrics", "translation_cycles", m.translationCycles);
    v.field("metrics", "base_cycles", m.baseCycles);
    v.field("metrics", "overhead_cycles", m.overheadCycles);
    v.field("metrics", "total_cycles", m.totalCycles);
    v.derived("metrics", "overhead_fraction",
              [&] { return m.overheadFraction(); });
    v.derived("metrics", "l1_hit_rate",
              [&] { return 1.0 - r.l1MissRate; });
    v.field("metrics", "l1_miss_rate", r.l1MissRate);
    v.field("metrics", "walks_per_kref", r.walksPerKref);
    v.field("metrics", "accesses_per_walk", r.accessesPerWalk);
    v.derived("metrics", "superpage_fraction",
              [&] { return r.distribution.superpageFraction(); });
    for (std::size_t i = 0; i < LifecycleStats.size(); i++)
        v.field("metrics", LifecycleStats[i], r.lifecycle[i]);

    auto &e = r.energy;
    v.field("energy", "l1_ways_read", e.l1WaysRead);
    v.field("energy", "l2_ways_read", e.l2WaysRead);
    v.field("energy", "l1_entries", e.l1Entries);
    v.field("energy", "l2_entries", e.l2Entries);
    v.field("energy", "l1_fills", e.l1Fills);
    v.field("energy", "l2_fills", e.l2Fills);
    v.field("energy", "fill_burst_factor", e.fillBurstFactor);
    v.field("energy", "walk_accesses", e.walkAccesses);
    v.field("energy", "walk_dram_accesses", e.walkDramAccesses);
    v.field("energy", "dirty_ops", e.dirtyOps);
    v.field("energy", "invalidations", e.invalidations);
    v.field("energy", "predictor_lookups", e.predictorLookups);
    v.field("energy", "skew_timestamps", e.skewTimestamps);
    v.field("energy", "total_cycles", e.totalCycles);
    const auto pj = [&] { return perf::EnergyModel{}.compute(e); };
    v.derived("energy", "lookup_pj", [&] { return pj().lookup; });
    v.derived("energy", "walk_pj", [&] { return pj().walk; });
    v.derived("energy", "fill_pj", [&] { return pj().fill; });
    v.derived("energy", "other_pj", [&] { return pj().other; });
    v.derived("energy", "leakage_pj", [&] { return pj().leakage; });
    v.derived("energy", "total_pj", [&] { return pj().total(); });
    v.derived("energy", "pj_per_access", [&] {
        return m.refs ? pj().total() / static_cast<double>(m.refs) : 0.0;
    });

    v.field("distribution", "bytes_4k", r.distribution.bytes4k);
    v.field("distribution", "bytes_2m", r.distribution.bytes2m);
    v.field("distribution", "bytes_1g", r.distribution.bytes1g);

    if (v.section("multi", !r.procL1MissRates.empty())) {
        v.field("multi", "context_switches", r.contextSwitches);
        v.field("multi", "full_flushes", r.fullFlushes);
        v.field("multi", "proc_l1_miss_rates", r.procL1MissRates);
    }
}

/** forEachField visitor building the record blocks. */
struct RecordWriter
{
    json::Value out = json::Value::object();

    template <class T>
    void
    field(const char *block, const char *key, const T &value)
    {
        out[block][key] = value;
    }

    void
    field(const char *block, const char *key,
          const std::vector<double> &values)
    {
        auto array = json::Value::array();
        for (double value : values)
            array.push(value);
        out[block][key] = std::move(array);
    }

    template <class Fn>
    void
    derived(const char *block, const char *key, Fn fn)
    {
        out[block][key] = fn();
    }

    bool section(const char *, bool present) { return present; }
};

/**
 * forEachField visitor filling a RunResult from a record; keys the
 * record lacks keep their defaults.
 */
struct RecordReader
{
    const json::Value &record;

    template <class T>
    void
    field(const char *block, const char *key, T &member)
    {
        const json::Value *object = record.find(block);
        const json::Value *value = object ? object->find(key) : nullptr;
        if (!value)
            return;
        if constexpr (std::is_same_v<T, bool>) {
            member = value->boolean();
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            for (const auto &[index, element] : value->members())
                member.push_back(element.number());
        } else {
            member = static_cast<T>(value->number());
        }
    }

    template <class Fn>
    void derived(const char *, const char *, Fn) {}

    bool section(const char *, bool) { return true; }
};

} // anonymous namespace

json::Value
resultJson(const RunResult &result)
{
    RecordWriter writer;
    forEachField(result, writer);
    return std::move(writer.out);
}

RunResult
resultFromJson(const json::Value &record)
{
    RunResult result;
    forEachField(result, RecordReader{record});
    return result;
}

namespace
{

sim::SweepParams
sweepParamsFromArgs(const sim::CliArgs &args)
{
    sim::SweepParams params;
    params.jobs = static_cast<unsigned>(args.getU64("jobs", 0));
    params.retries = static_cast<unsigned>(args.getU64("retries", 1));
    params.deadlineSeconds = args.getDouble("deadline", 0.0);
    params.faults =
        fault::FaultConfig::parse(args.getString("inject", ""));
    // Sugar for the pressure-lifecycle soak: `--demote-storm R` merges
    // a demote-storm rate into the injection config without the full
    // `--inject` syntax (and composes with it; the explicit flag wins).
    double storm = args.getDouble("demote-storm", 0.0);
    if (storm > 0.0) {
        auto &site = params.faults
                         .sites[static_cast<std::size_t>(
                             fault::Site::DemoteStorm)];
        site.rate = storm;
        site.pointLimited = false;
    }
    return params;
}

/** The full per-point record stored in the report and checkpoint. */
json::Value
makeRecord(const SweepJob &job, const RunResult &result,
           const sim::PointStatus &status, bool injecting)
{
    auto record = json::Value::object();
    record["section"] = job.section;
    record["label"] = job.label;
    record["config"] = configJson(job);
    record["status"] = status.ok ? "ok" : "failed";
    record["attempts"] = status.attempts;
    if (status.ok) {
        const json::Value blocks = resultJson(result);
        for (const auto &[name, block] : blocks.members())
            record[name] = block;
    } else {
        auto &error = record["error"];
        error["kind"] = status.errorKind;
        error["message"] = status.errorMessage;
    }
    if (injecting) {
        auto &faults = record["faults"];
        for (std::size_t s = 0; s < fault::SiteCount; s++) {
            faults[fault::siteName(static_cast<fault::Site>(s))] =
                status.faults[s];
        }
    }
    return record;
}

} // anonymous namespace

BenchSweep::BenchSweep(const sim::CliArgs &args, std::string benchmark)
    : runner_(sweepParamsFromArgs(args)),
      jsonPath_(args.getString("json", "")),
      allowFailures_(args.has("allow-failures")),
      timing_(!args.has("no-timing")),
      doc_(json::Value::object())
{
    contracts::setParanoia(
        static_cast<unsigned>(args.getU64("paranoia", 0)));

    std::string inject = args.getString("inject", "");
    double storm = args.getDouble("demote-storm", 0.0);
    injecting_ = !inject.empty() || storm > 0.0;

    doc_["benchmark"] = std::move(benchmark);
    doc_["jobs"] = runner_.jobs();
    doc_["paranoia"] = contracts::paranoia();
    doc_["retries"] = args.getU64("retries", 1);
    if (!inject.empty())
        doc_["inject"] = inject;
    if (storm > 0.0)
        doc_["demote_storm"] = storm;
    doc_["results"] = json::Value::array();
    doc_["failures"] = json::Value::array();

    // Checkpointing: on by default whenever a JSON report is requested
    // (the journal rides alongside it); `--resume` points at a prior
    // run's journal and keeps appending to it.
    std::string resume = args.getString("resume", "");
    checkpointPath_ = args.getString(
        "checkpoint", jsonPath_.empty() ? "" : jsonPath_ + ".ckpt");
    if (!resume.empty()) {
        loadCheckpoint(resume);
        checkpointPath_ = resume;
    }
    if (!checkpointPath_.empty()) {
        checkpoint_ = std::fopen(checkpointPath_.c_str(),
                                 resume.empty() ? "w" : "a");
        fatal_if(!checkpoint_, "cannot open checkpoint '%s'",
                 checkpointPath_.c_str());
    }
}

BenchSweep::~BenchSweep()
{
    if (checkpoint_)
        std::fclose(checkpoint_);
}

void
BenchSweep::loadCheckpoint(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(!file, "cannot read resume checkpoint '%s'", path.c_str());
    std::string content;
    char buffer[4096];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
        content.append(buffer, got);
    std::fclose(file);

    std::size_t pos = 0;
    while (pos < content.size()) {
        std::size_t newline = content.find('\n', pos);
        std::string line =
            newline == std::string::npos
                ? content.substr(pos)
                : content.substr(pos, newline - pos);
        pos = newline == std::string::npos ? content.size()
                                           : newline + 1;
        if (line.empty())
            continue;
        auto parsed = json::Value::parse(line);
        if (!parsed) {
            // A SIGKILL mid-append leaves a truncated final line; the
            // undamaged prefix is still a valid resume point.
            warn("checkpoint '%s': discarding a truncated trailing "
                 "line",
                 path.c_str());
            break;
        }
        const json::Value *index = parsed->find("i");
        const json::Value *record = parsed->find("record");
        fatal_if(!index || !index->isNumber() || !record,
                 "checkpoint '%s' is not a mixtlb sweep journal",
                 path.c_str());
        resumed_[static_cast<std::size_t>(index->number())] = *record;
    }
    inform("resume: %zu completed points loaded from %s",
           resumed_.size(), path.c_str());
}

void
BenchSweep::appendCheckpoint(std::size_t global_index,
                             const json::Value &record)
{
    if (!checkpoint_)
        return;
    auto line = json::Value::object();
    line["i"] = static_cast<std::uint64_t>(global_index);
    line["record"] = record;
    std::string text = line.dump(0);
    text += '\n';
    std::lock_guard<std::mutex> lock(checkpointMutex_);
    std::fwrite(text.data(), 1, text.size(), checkpoint_);
    // One flushed line per completed point: a kill at any moment
    // loses at most the in-flight point.
    std::fflush(checkpoint_);
}

std::vector<RunResult>
BenchSweep::run(const SweepGrid &grid)
{
    const auto &jobs = grid.jobs();
    const std::size_t base = globalIndex_;
    globalIndex_ += jobs.size();

    std::vector<json::Value> records(jobs.size());
    std::vector<sim::PointStatus> statuses;
    // Wall-clock per point (the final attempt when retried). Kept out
    // of the modeled statistics: it annotates the report only, and
    // `--no-timing` drops it for byte-stable golden comparisons.
    std::vector<double> wallSeconds(jobs.size(), 0.0);
    auto results = runner_.runChecked<RunResult>(
        jobs.size(),
        [&jobs, &wallSeconds](std::size_t i) {
            auto start = std::chrono::steady_clock::now();
            RunResult result = runJob(jobs[i]);
            wallSeconds[i] =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return result;
        },
        [&jobs](std::size_t i) { return effectiveSeed(jobs[i]); },
        statuses,
        [this, base](std::size_t i) {
            return resumed_.count(base + i) != 0;
        },
        [&](std::size_t i, const RunResult &result,
            const sim::PointStatus &status) {
            if (!status.ran)
                return;
            records[i] = makeRecord(jobs[i], result, status,
                                    injecting_);
            if (timing_ && status.ok) {
                auto &timing = records[i]["timing"];
                timing["wall_seconds"] = wallSeconds[i];
                timing["refs_per_sec"] =
                    wallSeconds[i] > 0
                        ? static_cast<double>(result.metrics.refs)
                              / wallSeconds[i]
                        : 0.0;
            }
            appendCheckpoint(base + i, records[i]);
        });

    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (!statuses[i].ran) {
            // Restored from the checkpoint: the stored record is
            // reused verbatim, so a resumed report is bit-identical
            // to an uninterrupted one — but first prove the journal
            // belongs to *this* sweep.
            const json::Value &stored = resumed_.at(base + i);
            const json::Value *label = stored.find("label");
            fatal_if(!label || label->str() != jobs[i].label,
                     "resume checkpoint does not match this sweep "
                     "(point %zu is '%s', expected '%s')",
                     base + i,
                     label ? label->str().c_str() : "<missing>",
                     jobs[i].label.c_str());
            const json::Value *config = stored.find("config");
            fatal_if(!config || config->dump(0)
                                    != configJson(jobs[i]).dump(0),
                     "resume checkpoint config mismatch at point %zu "
                     "('%s')",
                     base + i, jobs[i].label.c_str());
            records[i] = stored;
            results[i] = resultFromJson(stored);
        }

        const json::Value *state = records[i].find("status");
        const bool ok = state && state->str() == "ok";
        if (!ok) {
            failures_++;
            auto failure = json::Value::object();
            failure["index"] = static_cast<std::uint64_t>(base + i);
            failure["section"] = jobs[i].section;
            failure["label"] = jobs[i].label;
            const json::Value *error = records[i].find("error");
            if (error)
                failure["error"] = *error;
            const json::Value *attempts = records[i].find("attempts");
            if (attempts)
                failure["attempts"] = *attempts;
            doc_["failures"].push(std::move(failure));

            const json::Value *kind =
                error ? error->find("kind") : nullptr;
            warn("sweep point %zu (%s/%s) quarantined: %s",
                 base + i, jobs[i].section.c_str(),
                 jobs[i].label.c_str(),
                 kind ? kind->str().c_str() : "unknown");
        }
        doc_["results"].push(records[i]);
    }
    return results;
}

int
BenchSweep::finish()
{
    if (checkpoint_) {
        std::fclose(checkpoint_);
        checkpoint_ = nullptr;
    }
    if (failures_ > 0) {
        warn("%zu of %zu sweep points quarantined (see the report's "
             "\"failures\" block)",
             failures_, globalIndex_);
    }
    if (!jsonPath_.empty()) {
        if (!json::writeFile(jsonPath_, doc_))
            fatal("cannot write JSON results to %s", jsonPath_.c_str());
        inform("wrote %zu results to %s", doc_["results"].size(),
               jsonPath_.c_str());
    }
    return failures_ == 0 || allowFailures_ ? 0 : 1;
}

} // namespace mixtlb::bench
