#include "base.hh"

namespace mixtlb::tlb
{

BaseTlb::BaseTlb(const std::string &name, stats::StatGroup *parent)
    : stats_(name, parent),
      hits_(stats_.addCounter("hits", "TLB hits")),
      misses_(stats_.addCounter("misses", "TLB misses")),
      fills_(stats_.addCounter("fills",
                               "entry writes including mirror copies")),
      coalesces_(stats_.addCounter(
          "coalesces", "fills merged into existing entries")),
      invalidations_(stats_.addCounter("invalidations",
                                       "invalidation operations")),
      probesTotal_(stats_.addCounter("probes",
                                     "probe rounds over all lookups")),
      waysReadTotal_(stats_.addCounter("ways_read",
                                       "entries read over all lookups"))
{
    stats_.addFormula("miss_rate", "miss fraction", [this] {
        double total = double(hits_.value() + misses_.value());
        return total > 0 ? double(misses_.value()) / total : 0.0;
    });
}

} // namespace mixtlb::tlb
