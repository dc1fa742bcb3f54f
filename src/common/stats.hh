/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components own a StatGroup; they register named Counters,
 * Distributions, and Formulas (derived values computed at dump time).
 * Groups nest, so a TLB hierarchy dumps all its children with dotted
 * names (e.g. "l1.mix.hits").
 */

#ifndef MIXTLB_COMMON_STATS_HH
#define MIXTLB_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mixtlb::stats
{

/**
 * An integer event count, the one scalar stat type. It accumulates in
 * a signed 64-bit integer and converts to double only at report time,
 * so counts stay exact (a double loses increments past 2^53) and dump
 * as integers. Signed because a few stats are net counts that can dip
 * below zero after a reset: a reservation promoted after
 * resetStats() takes back 4KB faults counted before it.
 */
class Counter
{
  public:
    Counter &operator++() { value_ += 1; return *this; }
    Counter &operator+=(std::int64_t v) { value_ += v; return *this; }
    Counter &operator-=(std::int64_t v) { value_ -= v; return *this; }

    std::int64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::int64_t value_ = 0;
};

/** A simple sampled distribution (min/max/mean plus fixed buckets). */
class Distribution
{
  public:
    /** Buckets are [0,step), [step,2*step), ..., plus an overflow. */
    void init(double step, unsigned nbuckets);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t samples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    double min() const { return samples_ ? min_ : 0.0; }
    double max() const { return samples_ ? max_ : 0.0; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    double bucketStep() const { return step_; }
    void reset();

  private:
    double step_ = 1.0;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** A derived statistic evaluated lazily at dump time. */
using Formula = std::function<double()>;

/**
 * A named collection of statistics. Groups form a tree; dumping a group
 * prints every descendant statistic with a dotted path name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter under @p name; returns it for in-place use. */
    Counter &addCounter(const std::string &name, const std::string &desc);

    /** Register a distribution under @p name. */
    Distribution &addDistribution(const std::string &name,
                                  const std::string &desc,
                                  double step, unsigned nbuckets);

    /** Register a derived statistic. */
    void addFormula(const std::string &name, const std::string &desc,
                    Formula formula);

    /** Look up a previously registered counter; panics if missing. */
    const Counter &counter(const std::string &name) const;

    /** Value of the counter at dotted path @p name, as a double. */
    double value(const std::string &name) const;

    /** Dotted path from the root group. */
    std::string path() const;

    const std::string &name() const { return name_; }

    /** Print all statistics (this group and descendants). */
    void dump(std::ostream &os) const;

    /** Zero all statistics (this group and descendants). */
    void resetStats();

  private:
    struct CounterEntry { Counter stat; std::string desc; };
    struct DistEntry { Distribution stat; std::string desc; };
    struct FormulaEntry { Formula formula; std::string desc; };

    std::string name_;
    StatGroup *parent_;
    std::vector<StatGroup *> children_;
    // std::map keeps dump output deterministically sorted.
    std::map<std::string, CounterEntry> counters_;
    std::map<std::string, DistEntry> dists_;
    std::map<std::string, FormulaEntry> formulas_;
};

} // namespace mixtlb::stats

#endif // MIXTLB_COMMON_STATS_HH
