/**
 * @file
 * The benchmark's outside-in tracer. Spans are recorded around calls
 * into each layer's public functions, kept in memory, and written out
 * when the run ends; a layer's self time is its spans' busy time minus
 * the busy time of their child spans.
 *
 * Calls made once per reference (TLB access, data-cache access) or
 * per walk would need one span each, hundreds of megabytes for a
 * traced run, so they are summed in place: one span record per
 * reference batch carries the summed duration ("busy") and the number
 * of calls it covers. Coarse calls (construction, warmup, run) get a
 * span each, with calls = 1 and busy = end - start.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "tlb/hierarchy.hh"

namespace perfbench
{

/**
 * Span timestamps. On x86-64 this is the TSC (a few ns per read, so
 * per-reference spans stay affordable); ticks convert to ns with a
 * rate calibrated against steady_clock over the whole run.
 */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One span: a call (or a batch of summed calls) into a layer. */
struct Span
{
    /** "<layer>.<call>", e.g. "tlb.access"; the layer is the prefix. */
    const char *name = "";
    /** Index of the span that caused this one; -1 for a root span. */
    std::int64_t parent = -1;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Summed duration of the calls this span covers, in ticks. */
    std::uint64_t busy = 0;
    std::uint64_t calls = 0;
    /** Benchmark phase: "setup", "measure", "teardown" or "point". */
    const char *phase = "setup";
    /** Configuration the span belongs to (design/point label). */
    std::string config;
};

/** Per-reference calls summed until the enclosing batch closes. */
struct Tally
{
    std::uint64_t busy = 0;
    std::uint64_t calls = 0;
    std::uint64_t first = 0;
    std::uint64_t last = 0;

    void
    add(std::uint64_t start, std::uint64_t stop)
    {
        if (!calls)
            first = start;
        last = stop;
        busy += stop - start;
        ++calls;
    }
};

/** An in-memory span log. Thread-safe: sweep points run in parallel. */
class SpanLog
{
  public:
    /** Open a coarse span; close it with close(). */
    std::int64_t
    open(const char *name, std::int64_t parent, const char *phase,
         const std::string &config)
    {
        Span span;
        span.name = name;
        span.parent = parent;
        span.start = ticks();
        span.phase = phase;
        span.config = config;
        span.calls = 1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        const std::uint64_t now = ticks();
        std::lock_guard<std::mutex> lock(mutex_);
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = now;
        span.busy = now - span.start;
    }

    /** Record a batch of summed calls as one span and reset @p tally. */
    std::int64_t
    flush(const char *name, std::int64_t parent, const char *phase,
          const std::string &config, Tally &tally)
    {
        if (!tally.calls)
            return -1;
        Span span;
        span.name = name;
        span.parent = parent;
        span.start = tally.first;
        span.end = tally.last;
        span.busy = tally.busy;
        span.calls = tally.calls;
        span.phase = phase;
        span.config = config;
        tally = Tally{};
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII coarse span; a null log makes it a no-op (tracing off). */
class Scoped
{
  public:
    Scoped(SpanLog *log, const char *name, std::int64_t parent,
           const char *phase, const std::string &config)
        : log_(log),
          id_(log ? log->open(name, parent, phase, config) : -1)
    {}
    ~Scoped()
    {
        if (log_)
            log_->close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::int64_t id_;
};

/**
 * A WalkSource decorator that times the walker (pt layer) and fault
 * service (os layer) calls the TLB hierarchy makes through it. Every
 * other call forwards untimed.
 */
class TimedWalkSource : public mixtlb::tlb::WalkSource
{
  public:
    explicit TimedWalkSource(mixtlb::tlb::WalkSource &inner)
        : inner_(inner)
    {}

    mixtlb::pt::WalkResult
    walk(mixtlb::VAddr vaddr, bool is_store) override
    {
        const std::uint64_t start = ticks();
        auto result = inner_.walk(vaddr, is_store);
        walks.add(start, ticks());
        return result;
    }

    bool
    fault(mixtlb::VAddr vaddr, bool is_store) override
    {
        const std::uint64_t start = ticks();
        const bool ok = inner_.fault(vaddr, is_store);
        faults.add(start, ticks());
        return ok;
    }

    std::optional<mixtlb::PAddr>
    leafPteAddr(mixtlb::VAddr vaddr) override
    {
        return inner_.leafPteAddr(vaddr);
    }

    void setDirty(mixtlb::VAddr vaddr) override { inner_.setDirty(vaddr); }

    void
    invalidate(mixtlb::VAddr vbase, mixtlb::PageSize size) override
    {
        inner_.invalidate(vbase, size);
    }

    void
    invalidateAsid(mixtlb::Asid asid) override
    {
        inner_.invalidateAsid(asid);
    }

    bool hasRefTranslate() const override
    {
        return inner_.hasRefTranslate();
    }

    std::optional<mixtlb::PAddr>
    refTranslate(mixtlb::VAddr vaddr) override
    {
        return inner_.refTranslate(vaddr);
    }

    Tally walks;
    Tally faults;

  private:
    mixtlb::tlb::WalkSource &inner_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
