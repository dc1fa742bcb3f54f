/**
 * @file
 * Fixed host-speed kernels. They are the benchmark's own code, so no
 * change to the simulator can move them; their rates, taken in the
 * benchmark process before each unit and each native configuration,
 * record how fast the host was running at the time (README.md, "Host
 * noise").
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/json.hh"
#include "trace.hh"

namespace perfbench
{

namespace probe_detail
{

inline std::uint64_t
lcg(std::uint64_t x)
{
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

/** Millions of operations per second of @p ops operations. */
template <typename Kernel>
double
rate(std::uint64_t ops, Kernel kernel)
{
    const double start = steadySeconds();
    kernel();
    return static_cast<double>(ops) / since(start) / 1e6;
}

} // namespace probe_detail

/**
 * Rate (Mops/s) of @p ops updates of a 16-way LRU tag-array model over
 * 1MB: tag probes and MRU shifts, the kind of work the native units'
 * TLB and cache models do. run.py scales their host times by it.
 */
inline double
probeLru(std::uint64_t ops)
{
    using namespace probe_detail;
    constexpr unsigned Ways = 16;
    std::vector<std::uint64_t> table(1 << 17); // 1MB
    const std::uint64_t sets = table.size() / Ways;
    volatile std::uint64_t sink = 0;
    return rate(ops, [&] {
        std::uint64_t x = 99, hits = 0;
        for (std::uint64_t i = 0; i < ops; i++) {
            x = lcg(x);
            const std::uint64_t line = (x >> 40) % (sets * Ways * 4);
            std::uint64_t *set = &table[(line % sets) * Ways];
            unsigned way = 0;
            while (way < Ways && set[way] != line + 1)
                way++;
            if (way == Ways)
                way = Ways - 1;
            else
                hits++;
            std::memmove(set + 1, set, way * sizeof(*set));
            set[0] = line + 1;
        }
        sink = hits;
    });
}

/**
 * Rates (Mops/s) of three kernels: a dependent ALU chain, independent
 * read-modify-writes over 512KB and the LRU tag-array model (1M
 * updates). About 30 ms in all.
 */
inline mixtlb::json::Value
probeHost()
{
    using namespace probe_detail;
    volatile std::uint64_t sink = 0;
    auto out = mixtlb::json::Value::object();

    out["alu"] = rate(2000000, [&] {
        std::uint64_t x = 1;
        for (int i = 0; i < 2000000; i++) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x *= 0x9e3779b97f4a7c15ULL;
        }
        sink = x;
    });

    std::vector<std::uint64_t> table(1 << 16); // 512KB
    out["rmw"] = rate(1000000, [&] {
        std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        const std::uint64_t mask = table.size() - 1;
        for (int i = 0; i < 1000000; i += 8) {
            for (int j = 0; j < 8; j++) {
                x[j] = lcg(x[j]) + j;
                table[(x[j] >> 33) & mask] += x[j];
            }
        }
        sink = table[3];
    });

    out["lru"] = probeLru(1000000);
    (void)sink;
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
