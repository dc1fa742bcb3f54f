/**
 * @file
 * A page-size predictor in the spirit of Papadopoulou et al. (HPCA
 * 2014), used to enhance the hash-rehash and skew-associative TLBs the
 * paper compares against (Sec. 5.1).
 *
 * The predictor is a small untagged table indexed by a hash of the
 * virtual address's 2MB-region bits; each entry holds the last
 * resolved page size for addresses falling in that region. Accurate
 * prediction lets a multi-index TLB probe the right size first.
 */

#ifndef MIXTLB_TLB_PREDICTOR_HH
#define MIXTLB_TLB_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mixtlb::tlb
{

class SizePredictor
{
  public:
    SizePredictor(const std::string &name, stats::StatGroup *parent,
                  unsigned entries = 512);

    /** Predicted page size for @p vaddr. */
    PageSize predict(VAddr vaddr) const;

    /** Train with the resolved size. */
    void update(VAddr vaddr, PageSize actual);

    /** Record whether the earlier prediction turned out right. */
    void recordOutcome(bool correct);

    double accuracy() const;

    std::uint64_t numEntries() const { return table_.size(); }

  private:
    std::vector<PageSize> table_;

    stats::StatGroup stats_;
    stats::Counter &correct_;
    stats::Counter &wrong_;

    std::size_t indexOf(VAddr vaddr) const;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_PREDICTOR_HH
