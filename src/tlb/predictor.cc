#include "predictor.hh"

namespace mixtlb::tlb
{

SizePredictor::SizePredictor(const std::string &name,
                             stats::StatGroup *parent, unsigned entries)
    : table_(entries, PageSize::Size4K),
      stats_(name, parent),
      correct_(stats_.addCounter("correct", "correct size predictions")),
      wrong_(stats_.addCounter("wrong", "wrong size predictions"))
{
    stats_.addFormula("accuracy", "prediction accuracy", [this] {
        return accuracy();
    });
}

std::size_t
SizePredictor::indexOf(VAddr vaddr) const
{
    // Mix the 2MB-region number so nearby regions spread over the table.
    std::uint64_t region = vaddr >> PageShift2M;
    region ^= region >> 17;
    region *= 0x9e3779b97f4a7c15ULL;
    region ^= region >> 29;
    return static_cast<std::size_t>(region % table_.size());
}

PageSize
SizePredictor::predict(VAddr vaddr) const
{
    return table_[indexOf(vaddr)];
}

void
SizePredictor::update(VAddr vaddr, PageSize actual)
{
    table_[indexOf(vaddr)] = actual;
}

void
SizePredictor::recordOutcome(bool correct)
{
    if (correct)
        ++correct_;
    else
        ++wrong_;
}

double
SizePredictor::accuracy() const
{
    const auto total =
        static_cast<double>(correct_.value() + wrong_.value());
    return total > 0 ? static_cast<double>(correct_.value()) / total
                     : 0.0;
}

} // namespace mixtlb::tlb
