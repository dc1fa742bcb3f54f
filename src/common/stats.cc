#include "stats.hh"

#include <algorithm>
#include <iomanip>

#include "logging.hh"

namespace mixtlb::stats
{

void
Distribution::init(double step, unsigned nbuckets)
{
    panic_if(step <= 0.0 || nbuckets == 0, "bad Distribution geometry");
    step_ = step;
    buckets_.assign(nbuckets + 1, 0); // final bucket is overflow
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (buckets_.empty())
        init(1.0, 32);
    if (samples_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    samples_ += count;
    sum_ += v * count;
    auto idx = static_cast<std::size_t>(v / step_);
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1;
    buckets_[idx] += count;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
    sum_ = min_ = max_ = 0.0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

StatGroup::~StatGroup()
{
    if (parent_) {
        auto &sibs = parent_->children_;
        sibs.erase(std::remove(sibs.begin(), sibs.end(), this), sibs.end());
    }
}

Counter &
StatGroup::addCounter(const std::string &name, const std::string &desc)
{
    auto [it, inserted] = counters_.try_emplace(name);
    panic_if(!inserted, "duplicate counter stat %s", name.c_str());
    it->second.desc = desc;
    return it->second.stat;
}

Distribution &
StatGroup::addDistribution(const std::string &name, const std::string &desc,
                           double step, unsigned nbuckets)
{
    auto [it, inserted] = dists_.try_emplace(name);
    panic_if(!inserted, "duplicate distribution stat %s", name.c_str());
    it->second.desc = desc;
    it->second.stat.init(step, nbuckets);
    return it->second.stat;
}

void
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      Formula formula)
{
    auto [it, inserted] = formulas_.try_emplace(name);
    panic_if(!inserted, "duplicate formula stat %s", name.c_str());
    it->second.desc = desc;
    it->second.formula = std::move(formula);
}

const Counter &
StatGroup::counter(const std::string &name) const
{
    auto dot = name.find('.');
    if (dot != std::string::npos) {
        const std::string head = name.substr(0, dot);
        for (const auto *child : children_) {
            if (child->name_ == head)
                return child->counter(name.substr(dot + 1));
        }
        panic("unknown stat group %s under %s",
              head.c_str(), path().c_str());
    }
    auto it = counters_.find(name);
    panic_if(it == counters_.end(), "unknown counter stat %s.%s",
             path().c_str(), name.c_str());
    return it->second.stat;
}

double
StatGroup::value(const std::string &name) const
{
    auto dot = name.find('.');
    if (dot != std::string::npos) {
        const std::string head = name.substr(0, dot);
        for (const auto *child : children_) {
            if (child->name_ == head)
                return child->value(name.substr(dot + 1));
        }
        panic("unknown stat group %s under %s",
              head.c_str(), path().c_str());
    }
    auto it = counters_.find(name);
    panic_if(it == counters_.end(), "unknown stat %s.%s",
             path().c_str(), name.c_str());
    return static_cast<double>(it->second.stat.value());
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = path();
    for (const auto &[name, entry] : counters_) {
        os << std::left << std::setw(48) << (prefix + "." + name)
           << std::setw(16) << entry.stat.value()
           << "# " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : formulas_) {
        os << std::left << std::setw(48) << (prefix + "." + name)
           << std::setw(16) << entry.formula()
           << "# " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : dists_) {
        const auto &d = entry.stat;
        os << std::left << std::setw(48) << (prefix + "." + name)
           << "samples=" << d.samples() << " mean=" << d.mean()
           << " min=" << d.min() << " max=" << d.max()
           << " # " << entry.desc << "\n";
    }
    for (const auto *child : children_)
        child->dump(os);
}

void
StatGroup::resetStats()
{
    for (auto &[name, entry] : counters_)
        entry.stat.reset();
    for (auto &[name, entry] : dists_)
        entry.stat.reset();
    for (auto *child : children_)
        child->resetStats();
}

} // namespace mixtlb::stats
