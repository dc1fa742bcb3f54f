/**
 * @file
 * The one run driver every machine kind replays through. Native,
 * virtualized, multiprogrammed and GPU machines differ only in how they
 * schedule references onto hierarchies and in the OS work they do at a
 * run boundary; the batch loop (generate, translate, poll) and the
 * first-touch sweep loop live here once, so the deadline poll, the
 * paranoia audits and the out-of-memory policy are the same for all.
 *
 * Header-only so `gpu/` can use it without linking `mixtlb_sim`, and
 * templated on the hooks so the batch loop inlines them.
 */

#ifndef MIXTLB_SIM_DRIVER_HH
#define MIXTLB_SIM_DRIVER_HH

#include <algorithm>
#include <string>
#include <utility>

#include "common/contracts.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "tlb/hierarchy.hh"
#include "workload/generator.hh"

namespace mixtlb::sim
{

/**
 * Cadence of the checks between reference batches: the per-point
 * deadline poll and the OS boundary hook (must be a power of two).
 */
constexpr std::uint64_t CheckPeriod = 1ULL << 10;

/** Mid-run audit cadence at paranoia >= 3 (must be a power of two). */
constexpr std::uint64_t AuditPeriod = 1ULL << 16;

/**
 * One run (or warmup) of one machine. @p Audit runs the machine's
 * structural auditors. Cadences count the references this driver has
 * replayed across all replay() calls, so a kind that replays in short
 * slices or warps still polls once per CheckPeriod references.
 */
template <class Audit>
class Driver
{
  public:
    /** Totals of one replay() call. */
    struct Replay
    {
        std::uint64_t done = 0;
        /** False: a reference ran out of memory and the replay stopped. */
        bool ok = true;
        Cycles cycles = 0;     ///< translation cycles
        Cycles dataCycles = 0; ///< data-side cache cycles
    };

    /** @param who names the machine in warnings and raised errors. */
    Driver(std::string who, Audit audit)
        : who_(std::move(who)), audit_(std::move(audit))
    {}

    /**
     * Replay @p refs references of @p gen through @p hier in
     * CheckPeriod-aligned batches. At every multiple of CheckPeriod
     * replayed references: poll the deadline, run @p boundary (the
     * kind's OS work, if any), and audit every AuditPeriod at paranoia
     * >= 3. Out of memory warns and returns short with ok = false.
     */
    // mixcheck: hot
    template <class Boundary>
    Replay replay(tlb::TlbHierarchy &hier, workload::TraceGenerator &gen,
                  std::uint64_t refs, bool charge_data,
                  Boundary &&boundary)
    {
        MemRef batch[CheckPeriod];
        Replay out;
        while (out.done < refs) {
            const auto chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(
                    CheckPeriod - (ran_ & (CheckPeriod - 1)),
                    refs - out.done));
            simd::prefetchWrite(batch);     // next trace chunk
            simd::prefetchWrite(batch + 4);
            gen.nextBatch(batch, chunk);
            const auto br = hier.translateBatch({batch, chunk},
                                                charge_data);
            out.done += br.done;
            out.cycles += br.cycles;
            out.dataCycles += br.dataCycles;
            ran_ += br.done;
            if (!br.ok) {
                warn("%s out of memory after %llu refs", who_.c_str(),
                     (unsigned long long)ran_);
                out.ok = false;
                break;
            }
            if ((ran_ & (CheckPeriod - 1)) != 0)
                continue;
            if (fault::deadlineExpired()) {
                MIX_RAISE("deadline",
                          "%s exceeded per-point deadline after %llu "
                          "refs",
                          who_.c_str(), (unsigned long long)ran_);
            }
            boundary();
            if (contracts::paranoia() >= 3 &&
                (ran_ & (AuditPeriod - 1)) == 0) {
                audit_();
            }
        }
        return out;
    }

    /**
     * Visit [0, @p bytes) in @p stride steps; @p step(offset) returns
     * false when out of memory, which raises "oom". Polls the deadline
     * every CheckPeriod steps.
     */
    template <class Step>
    void sweep(const char *phase, std::uint64_t bytes,
               std::uint64_t stride, Step &&step)
    {
        std::uint64_t steps = 0;
        for (std::uint64_t off = 0; off < bytes; off += stride, steps++) {
            if (!step(off)) {
                MIX_RAISE("oom",
                          "%s: %s ran out of memory at offset %llu of "
                          "%llu bytes",
                          who_.c_str(), phase, (unsigned long long)off,
                          (unsigned long long)bytes);
            }
            if ((steps & (CheckPeriod - 1)) == CheckPeriod - 1 &&
                fault::deadlineExpired()) {
                MIX_RAISE("deadline",
                          "%s exceeded per-point deadline during %s",
                          who_.c_str(), phase);
            }
        }
    }

    /** End of a phase: the paranoia >= 1 audit. */
    void finish()
    {
        if (contracts::paranoia() >= 1)
            audit_();
    }

  private:
    std::string who_;
    Audit audit_;
    std::uint64_t ran_ = 0;
};

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_DRIVER_HH
