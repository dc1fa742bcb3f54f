/**
 * @file
 * perfbench: runs one benchmark workload for a given time and prints a
 * JSON report on stdout (host timings per unit of work, modeled values
 * per configuration, and, when traced, per-layer span totals). run.py
 * builds this program, runs it, checks the modeled values and turns
 * the report into the benchmark's metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
 *             [--units N] [--check-seed N] [--spans PATH] [--jobs N]
 *
 * Untraced, units repeat while another one still fits in --seconds
 * (at least one; or exactly --units times), each after a host-speed
 * probe. Native units run on one thread; fig14-sweep runs its grid on
 * --jobs sweep workers. Traced, each round runs one untraced and one
 * traced unit of the same seed, so the report carries both stat-dump
 * hashes and both wall times (the tracing overhead). --check-seed adds
 * one untraced unit at that seed after the timed ones; the time it is
 * expected to take counts against --seconds.
 */

#include <sys/resource.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <tuple>

#include "bench.hh"
#include "common/contracts.hh"
#include "common/simd.hh"
#include "probe.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::uint64_t units = 0;
    bool haveCheckSeed = false;
    std::uint64_t checkSeed = 0;
    std::string spans;
    unsigned jobs = 3;
};

[[noreturn]] void
usage(const char *error)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S [--trace 0|1] [--units N] "
                 "[--check-seed N] [--spans PATH] [--jobs N]\n",
                 error);
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage((std::string("bad number for ") + flag).c_str());
    return value;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("every flag takes a value");
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = parseU64("--seed", value);
            have_seed = true;
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseU64("--seconds", value));
            have_seconds = true;
        } else if (flag == "--trace") {
            o.trace = parseU64("--trace", value) != 0;
        } else if (flag == "--units") {
            o.units = parseU64("--units", value);
        } else if (flag == "--check-seed") {
            o.checkSeed = parseU64("--check-seed", value);
            o.haveCheckSeed = true;
        } else if (flag == "--spans") {
            o.spans = value;
        } else if (flag == "--jobs") {
            o.jobs = static_cast<unsigned>(parseU64("--jobs", value));
            if (o.jobs == 0)
                usage("--jobs must be at least 1");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds)
        usage("--workload, --seed and --seconds are required");
    return o;
}

using UnitFn = Value (*)(const UnitContext &);

UnitFn
unitFor(const std::string &workload)
{
    if (workload == "resident")
        return residentUnit;
    if (workload == "walk-heavy")
        return walkHeavyUnit;
    if (workload == "multiprog")
        return multiprogUnit;
    if (workload == "fig14-sweep")
        return fig14Unit;
    usage(("unknown workload " + workload).c_str());
}

/** Run one unit; a simulator error is recorded, not fatal. */
Value
runUnit(UnitFn fn, const UnitContext &ctx)
{
    try {
        return fn(ctx);
    } catch (const std::exception &error) {
        auto out = Value::object();
        out["error"] = error.what();
        return out;
    }
}

/** The CPU's brand string (CPUID), for the host fingerprint. */
std::string
cpuModel()
{
#if defined(__x86_64__)
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; leaf++) {
        if (!__get_cpuid(0x80000002 + leaf, &regs[leaf * 4],
                         &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                         &regs[leaf * 4 + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
#else
    return "unknown";
#endif
}

/** Peak resident memory of this process so far, in KB. */
std::uint64_t
peakRssKb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/** TSC-to-ns rate, calibrated against steady_clock since start-up. */
struct TickRate
{
    std::uint64_t ticks0 = ticks();
    double seconds0 = steadySeconds();

    double
    nsPerTick() const
    {
        const double ns = (steadySeconds() - seconds0) * 1e9;
        const std::uint64_t elapsed = ticks() - ticks0;
        return elapsed ? ns / static_cast<double>(elapsed) : 1.0;
    }
};

/**
 * Per (config, phase, span name) totals over spans [begin, end) of
 * the log: busy time, self time (busy minus the children's busy time)
 * and calls.
 */
Value
aggregate(const SpanLog &log, std::size_t begin, std::size_t end,
          double ns_per_tick)
{
    const auto &spans = log.spans();
    std::vector<double> child_busy(end - begin, 0.0);
    for (std::size_t i = begin; i < end; i++) {
        const std::int64_t parent = spans[i].parent;
        if (parent >= static_cast<std::int64_t>(begin))
            child_busy[parent - begin] += double(spans[i].busy);
    }
    struct Row
    {
        double busy = 0, self = 0, calls = 0;
    };
    std::map<std::tuple<std::string, std::string, std::string>, Row> rows;
    for (std::size_t i = begin; i < end; i++) {
        const Span &s = spans[i];
        Row &row = rows[{s.config, s.phase, s.name}];
        row.busy += double(s.busy);
        row.self += double(s.busy) - child_busy[i - begin];
        row.calls += double(s.calls);
    }
    auto out = Value::array();
    for (const auto &[key, row] : rows) {
        auto entry = Value::object();
        entry["config"] = std::get<0>(key);
        entry["phase"] = std::get<1>(key);
        entry["name"] = std::get<2>(key);
        entry["busy_ns"] = row.busy * ns_per_tick;
        entry["self_ns"] = row.self * ns_per_tick;
        entry["calls"] = row.calls;
        out.push(std::move(entry));
    }
    return out;
}

bool
writeSpans(const std::string &path, const SpanLog &log, double ns_per_tick)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    const auto &spans = log.spans();
    const std::uint64_t origin = spans.empty() ? 0 : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::fprintf(file,
                     "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                     "\"config\": \"%s\", \"phase\": \"%s\", "
                     "\"start_ns\": %.0f, \"end_ns\": %.0f, "
                     "\"busy_ns\": %.0f, \"calls\": %llu}\n",
                     i, s.name, (long long)s.parent, s.config.c_str(),
                     s.phase, double(s.start - origin) * ns_per_tick,
                     double(s.end - origin) * ns_per_tick,
                     double(s.busy) * ns_per_tick,
                     (unsigned long long)s.calls);
    }
    return std::fclose(file) == 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const TickRate rate;
    const Options opt = parse(argc, argv);
    const UnitFn fn = unitFor(opt.workload);
    mixtlb::contracts::setParanoia(0);

    auto doc = Value::object();
    doc["workload"] = opt.workload;
    doc["seed"] = std::to_string(opt.seed);
    doc["trace"] = opt.trace;
    doc["kernel"] = mixtlb::simd::activeKernelName();
    doc["cpu_model"] = cpuModel();
#if defined(__clang__)
    doc["compiler"] = "clang " __clang_version__;
#else
    doc["compiler"] = "g++ " __VERSION__;
#endif
    doc["flags"] = PERFBENCH_CXX_FLAGS;
    doc["build_type"] = PERFBENCH_BUILD_TYPE;

    const UnitContext plain{opt.seed, nullptr, opt.jobs};
    // Start another unit (or round) only while it is expected to end
    // within --seconds, judged by the longest one so far; the check
    // unit, if any, takes about as long as a timed unit.
    const double start = steadySeconds();
    double longest = 0, last = start;
    auto more = [&](std::size_t done) {
        if (opt.units)
            return done < opt.units;
        const double now = steadySeconds();
        if (done > 0)
            longest = std::max(longest, now - last);
        last = now;
        const double reserve = opt.haveCheckSeed ? longest : 0.0;
        return done == 0 ||
               since(start) + longest + reserve <= opt.seconds;
    };

    SpanLog log;
    if (!opt.trace) {
        auto units = Value::array();
        for (std::size_t n = 0; more(n); n++) {
            Value probe = probeHost();
            Value unit = runUnit(fn, plain);
            unit["host_probe"] = std::move(probe);
            units.push(std::move(unit));
            // Peak memory through the first unit: later units repeat
            // it, and how many fit in the run must not move the peak.
            if (n == 0)
                doc["peak_rss_kb"] = peakRssKb();
        }
        doc["units"] = std::move(units);
    } else {
        const UnitContext traced{opt.seed, &log, opt.jobs};
        auto pairs = Value::array();
        for (std::size_t n = 0; more(n); n++) {
            auto pair = Value::object();
            pair["plain"] = runUnit(fn, plain);
            const std::size_t begin = log.spans().size();
            pair["traced"] = runUnit(fn, traced);
            pair["layers"] = aggregate(log, begin, log.spans().size(),
                                       rate.nsPerTick());
            pairs.push(std::move(pair));
        }
        doc["pairs"] = std::move(pairs);
        doc["trace_note"] =
            opt.workload == "resident" || opt.workload == "walk-heavy"
                ? "traced units call TlbHierarchy::access() and "
                  "CacheHierarchy::access() once per reference instead "
                  "of the fused translateBatch(), so TLB and data-cache "
                  "time can be split; walk-access cache charging stays "
                  "in tlb self time"
                : "traced units record spans at construction, warmup, "
                  "run and sweep-point boundaries only";
    }
    if (opt.haveCheckSeed)
        doc["check"] = runUnit(fn, {opt.checkSeed, nullptr, opt.jobs});

    if (opt.trace && !opt.spans.empty()) {
        if (!writeSpans(opt.spans, log, rate.nsPerTick())) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.spans.c_str());
            return 1;
        }
        doc["spans_file"] = opt.spans;
    }
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}
