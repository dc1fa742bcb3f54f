#include "phys_mem.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::mem
{

PhysMem::PhysMem(std::uint64_t bytes)
    : bytes_(bytes), buddy_(bytes >> PageShift4K),
      frameUse_(bytes >> PageShift4K, FrameUse::Free),
      data_(bytes >> PageShift4K)
{
    fatal_if(bytes == 0 || (bytes & (PageBytes4K - 1)) != 0,
             "physical memory size must be a nonzero multiple of 4KB");
}

std::optional<Pfn>
PhysMem::allocFrames(unsigned order, FrameUse use)
{
    auto pfn = buddy_.alloc(order);
    if (pfn)
        tagFrames(*pfn, order, use);
    return pfn;
}

bool
PhysMem::allocFramesAt(Pfn pfn, unsigned order, FrameUse use)
{
    if (!buddy_.allocRegion(pfn, order))
        return false;
    tagFrames(pfn, order, use);
    return true;
}

void
PhysMem::freeFrames(Pfn pfn, unsigned order)
{
    tagFrames(pfn, order, FrameUse::Free);
    data_.clear(pfn, pow2(order));
    buddy_.free(pfn, order);
}

void
PhysMem::retagFrames(Pfn pfn, unsigned order, FrameUse use)
{
    for (std::uint64_t i = 0; i < pow2(order); i++) {
        panic_if(frameUse_[pfn + i] == FrameUse::Free,
                 "retagFrames over a free frame");
    }
    tagFrames(pfn, order, use);
}

void
PhysMem::tagFrames(Pfn pfn, unsigned order, FrameUse use)
{
    panic_if(pfn + pow2(order) > frameUse_.size(),
             "frame range out of bounds");
    for (std::uint64_t i = 0; i < pow2(order); i++)
        frameUse_[pfn + i] = use;
}

FrameUse
PhysMem::frameUse(Pfn pfn) const
{
    panic_if(pfn >= frameUse_.size(), "pfn out of bounds");
    return frameUse_[pfn];
}

void
PhysMem::audit(contracts::AuditReport &report) const
{
    buddy_.audit(report);

    // Cross-check the usage tags against the buddy's free frames: the
    // Free tags must cover exactly the free frames (no frame both
    // handed out and free, none leaked as allocated-but-untracked).
    std::uint64_t mismatches = 0;
    for (Pfn pfn = 0; pfn < frameUse_.size(); pfn++) {
        const bool tagged_free = frameUse_[pfn] == FrameUse::Free;
        const bool free_in_buddy = buddy_.isRegionFree(pfn, 0);
        if (tagged_free == free_in_buddy)
            continue;
        if (mismatches++ < 8) { // a systematic drift floods the report
            MIX_AUDIT_CHECK(report, false,
                            "frame 0x%llx is %s in the buddy but "
                            "tagged %s",
                            (unsigned long long)pfn,
                            free_in_buddy ? "free" : "allocated",
                            tagged_free ? "Free" : "in use");
        }
    }
    MIX_AUDIT_CHECK(report, mismatches <= 8,
                    "%llu further frame tag / buddy mismatches",
                    (unsigned long long)(mismatches - 8));
}

std::uint64_t
PhysMem::read64(PAddr paddr) const
{
    panic_if(paddr & 7, "unaligned read64");
    const auto *frame = data_.find(paddr >> PageShift4K);
    if (!frame || !*frame)
        return 0;
    return (**frame)[(paddr & (PageBytes4K - 1)) >> 3];
}

void
PhysMem::write64(PAddr paddr, std::uint64_t value)
{
    panic_if(paddr & 7, "unaligned write64");
    Pfn pfn = paddr >> PageShift4K;
    panic_if(pfn >= frameUse_.size(), "write64 past end of memory");
    auto &frame = data_.at(pfn);
    if (!frame)
        frame = std::make_unique<FrameData>(); // value-initialised: zeros
    (*frame)[(paddr & (PageBytes4K - 1)) >> 3] = value;
}

} // namespace mixtlb::mem
