#include "process.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::os
{

const char *
pagePolicyName(PagePolicy policy)
{
    switch (policy) {
      case PagePolicy::SmallOnly: return "4K";
      case PagePolicy::Huge2M: return "2M";
      case PagePolicy::Huge1G: return "1G";
      case PagePolicy::Thp: return "THS";
      case PagePolicy::Reservation: return "reservation";
    }
    return "?";
}

Process::Process(MemoryManager &mm, const ProcessParams &params,
                 stats::StatGroup *parent)
    : mm_(mm), params_(params), pageTable_(mm.phys()),
      nextMmap_(alignUp(params.mmapBase, PageBytes1G)),
      ownedFrames_(mm.phys().totalFrames()),
      stats_(params.name, parent),
      faults4k_(stats_.addCounter("faults_4k", "4KB page faults")),
      faults2m_(stats_.addCounter("faults_2m", "2MB page faults")),
      faults1g_(stats_.addCounter("faults_1g", "1GB page faults")),
      thpFallbacks_(stats_.addCounter("thp_fallbacks",
          "THS faults that fell back to 4KB pages")),
      migrations_(stats_.addCounter("migrations",
          "pages migrated away by compaction")),
      demotions_(stats_.addCounter("demotions",
          "superpages demoted to the next smaller page size")),
      reclaims_(stats_.addCounter("reclaims",
          "frames freed by reclaim under memory pressure")),
      repromotions_(stats_.addCounter("repromotions",
          "demoted regions rebuilt into superpages")),
      oomRetries_(stats_.addCounter("oom_retries",
          "4KB fault allocation retries after a failed attempt")),
      demoteRescues_(stats_.addCounter("demote_rescues",
          "4KB faults saved from OOM by demotion/reclaim")),
      compactionRescues_(stats_.addCounter("compaction_rescues",
          "superpage faults satisfied only after compaction"))
{
    reservePools();
    mm_.addReclaimer(this, [this](std::uint64_t want) {
        return reclaimMemory(want);
    });
}

Process::~Process()
{
    mm_.removeReclaimer(this);
    // Free every owned frame; unregister movable small pages first.
    ownedFrames_.forEach([this](Pfn pfn, std::uint8_t slot) {
        const unsigned order = slot - 1;
        if (order == 0 &&
            mm_.phys().frameUse(pfn) == mem::FrameUse::AppSmall) {
            mm_.unregisterMovable(pfn);
        }
        mm_.phys().freeFrames(pfn, order);
    });
    for (Pfn pfn : pool2m_)
        mm_.phys().freeFrames(pfn, mem::Order2M);
    for (Pfn pfn : pool1g_)
        mm_.phys().freeFrames(pfn, mem::Order1G);
}

void
Process::reservePools()
{
    // libhugetlbfs reserves its pool up front; superpages come from the
    // pool at fault time and the pool's blocks are not movable.
    for (std::uint64_t i = 0; i < params_.pool2mPages; i++) {
        auto pfn = mm_.allocContiguous(mem::Order2M,
                                       mem::FrameUse::AppHuge, true);
        if (!pfn)
            break;
        pool2m_.push_back(*pfn);
    }
    for (std::uint64_t i = 0; i < params_.pool1gPages; i++) {
        auto pfn = mm_.allocContiguous(mem::Order1G,
                                       mem::FrameUse::AppHuge, true);
        if (!pfn)
            break;
        pool1g_.push_back(*pfn);
    }
}

VAddr
Process::mmap(std::uint64_t bytes)
{
    fatal_if(bytes == 0, "mmap of zero bytes");
    VAddr base = nextMmap_;
    std::uint64_t span = alignUp(bytes, PageBytes1G);
    nextMmap_ += span;
    vmas_.push_back(Vma{base, bytes});
    return base;
}

bool
Process::inVma(VAddr vaddr) const
{
    for (const auto &vma : vmas_) {
        if (vaddr >= vma.base && vaddr < vma.base + vma.bytes)
            return true;
    }
    return false;
}

void
Process::addInvalidateListener(
    std::function<void(VAddr, PageSize)> listener)
{
    invalidateListeners_.push_back(std::move(listener));
}

void
Process::fireInvalidate(VAddr vbase, PageSize size)
{
    for (const auto &listener : invalidateListeners_)
        listener(vbase, size);
}

std::uint64_t
Process::residentBytes(PageSize size) const
{
    switch (size) {
      case PageSize::Size4K:
        return resident4k_ * PageBytes4K;
      case PageSize::Size2M:
        return resident2m_ * PageBytes2M;
      case PageSize::Size1G:
        return resident1g_ * PageBytes1G;
    }
    return 0;
}

std::uint64_t
Process::residentBytes() const
{
    return residentBytes(PageSize::Size4K)
           + residentBytes(PageSize::Size2M)
           + residentBytes(PageSize::Size1G);
}

TouchResult
Process::touch(VAddr vaddr, bool is_store)
{
    (void)is_store; // A/D bits are the walker's job (Sec. 4.4)
    if (pageTable_.translate(vaddr))
        return TouchResult::Mapped;
    panic_if(!inVma(vaddr), "touch outside any VMA: 0x%llx",
             (unsigned long long)vaddr);

    switch (params_.policy) {
      case PagePolicy::SmallOnly:
        return faultSmall(vaddr);
      case PagePolicy::Thp:
        return faultThp(vaddr);
      case PagePolicy::Huge2M:
        return faultPool2m(vaddr);
      case PagePolicy::Huge1G:
        return faultPool1g(vaddr);
      case PagePolicy::Reservation:
        return faultReservation(vaddr);
    }
    panic("unreachable");
}

/** Free frames map() may need for page tables after a data-frame grab. */
constexpr std::uint64_t HeadroomFrames = 8;

TouchResult
Process::faultSmall(VAddr vaddr)
{
    std::optional<Pfn> pfn;
    bool rescued = false;
    for (unsigned round = 0; round < 2 && !pfn; round++) {
        if (round == 1) {
            // Out of memory (or out of headroom): demote superpages
            // and reclaim cold pages — possibly from other processes
            // sharing this memory manager — before conceding OOM.
            if (mm_.reclaim(4 * HeadroomFrames) == 0)
                break;
            rescued = true;
        }
        // Keep headroom for the page-table frames map() may allocate,
        // so a data-frame success is never followed by a fatal
        // PT-frame OOM.
        if (mm_.phys().buddy().freeFrames() < HeadroomFrames)
            continue;
        // Injected allocation failures here are transient (a loaded
        // kernel retries reclaim), so take a few attempts before
        // escalating; a rate-1.0 injection still starves the fault
        // deterministically — reclaim frees frames but every retry
        // must still win its fault draw.
        for (unsigned attempt = 0; attempt < 3 && !pfn; attempt++) {
            if (attempt > 0)
                ++oomRetries_;
            if (fault::fire(fault::Site::BuddyAlloc))
                continue;
            pfn = mm_.phys().allocFrames(0, mem::FrameUse::AppSmall);
        }
    }
    if (!pfn)
        return TouchResult::OutOfMemory;
    if (rescued)
        ++demoteRescues_;
    VAddr vbase = pageBase(vaddr, PageSize::Size4K);
    mm_.registerMovable(*pfn, this, vbase);
    own(*pfn, 0);
    pageTable_.map(vbase, *pfn << PageShift4K, PageSize::Size4K);
    ++faults4k_;
    ++resident4k_;
    return TouchResult::Faulted;
}

TouchResult
Process::faultThp(VAddr vaddr)
{
    // THS maps whole 2MB regions on first touch when the region is
    // fully inside the VMA and no 4KB page in it is already mapped.
    VAddr region = pageBase(vaddr, PageSize::Size2M);
    bool eligible = inVma(region) && inVma(region + PageBytes2M - 1)
                    && smallIn2m_.find(region) == smallIn2m_.end();
    if (eligible) {
        const std::uint64_t compactions = mm_.compactionSuccessCount();
        auto pfn = mm_.allocContiguous(mem::Order2M,
                                       mem::FrameUse::AppHuge,
                                       params_.thpDefrag);
        if (pfn) {
            if (mm_.compactionSuccessCount() > compactions)
                ++compactionRescues_;
            own(*pfn, mem::Order2M);
            pageTable_.map(region, *pfn << PageShift4K, PageSize::Size2M);
            ++faults2m_;
            ++resident2m_;
            residentSuper_.emplace(region, PageSize::Size2M);
            return TouchResult::Faulted;
        }
        ++thpFallbacks_;
    }
    auto result = faultSmall(vaddr);
    if (result == TouchResult::Faulted)
        smallIn2m_[region]++;
    return result;
}

TouchResult
Process::faultPool2m(VAddr vaddr)
{
    VAddr region = pageBase(vaddr, PageSize::Size2M);
    bool eligible = inVma(region) && inVma(region + PageBytes2M - 1)
                    && smallIn2m_.find(region) == smallIn2m_.end();
    if (eligible && !pool2m_.empty()) {
        Pfn pfn = pool2m_.front();
        pool2m_.pop_front();
        own(pfn, mem::Order2M);
        pageTable_.map(region, pfn << PageShift4K, PageSize::Size2M);
        ++faults2m_;
        ++resident2m_;
        residentSuper_.emplace(region, PageSize::Size2M);
        return TouchResult::Faulted;
    }
    auto result = faultSmall(vaddr);
    if (result == TouchResult::Faulted)
        smallIn2m_[region]++;
    return result;
}

TouchResult
Process::faultPool1g(VAddr vaddr)
{
    VAddr region = pageBase(vaddr, PageSize::Size1G);
    bool eligible = inVma(region) && inVma(region + PageBytes1G - 1)
                    && subIn1g_.find(region) == subIn1g_.end();
    if (eligible && !pool1g_.empty()) {
        Pfn pfn = pool1g_.front();
        pool1g_.pop_front();
        own(pfn, mem::Order1G);
        pageTable_.map(region, pfn << PageShift4K, PageSize::Size1G);
        ++faults1g_;
        ++resident1g_;
        residentSuper_.emplace(region, PageSize::Size1G);
        return TouchResult::Faulted;
    }
    auto result = faultSmall(vaddr);
    if (result == TouchResult::Faulted) {
        subIn1g_[region]++;
        smallIn2m_[pageBase(vaddr, PageSize::Size2M)]++;
    }
    return result;
}

TouchResult
Process::faultReservation(VAddr vaddr)
{
    // FreeBSD-style reservations (Navarro et al., OSDI 2002): the
    // first touch of a 2MB region reserves a whole 2MB frame block,
    // 4KB pages are backed from their natural slot within it, and the
    // region is promoted to a superpage once every slot is mapped.
    VAddr region = pageBase(vaddr, PageSize::Size2M);
    VAddr vbase = pageBase(vaddr, PageSize::Size4K);
    auto it = reservations_.find(region);
    if (it == reservations_.end()) {
        bool eligible = inVma(region) && inVma(region + PageBytes2M - 1)
                        && smallIn2m_.find(region) == smallIn2m_.end();
        if (eligible) {
            const std::uint64_t compactions = mm_.compactionSuccessCount();
            auto block = mm_.allocContiguous(
                mem::Order2M, mem::FrameUse::AppHuge, params_.thpDefrag);
            if (block) {
                if (mm_.compactionSuccessCount() > compactions)
                    ++compactionRescues_;
                own(*block, mem::Order2M);
                it = reservations_
                         .emplace(region, Reservation{*block, 0})
                         .first;
            }
        }
        if (it == reservations_.end()) {
            auto result = faultSmall(vaddr);
            if (result == TouchResult::Faulted)
                smallIn2m_[region]++;
            return result;
        }
    }

    auto slot = (vbase - region) >> PageShift4K;
    pageTable_.map(vbase,
                   (it->second.block + slot) << PageShift4K,
                   PageSize::Size4K);
    ++faults4k_;
    ++resident4k_;
    it->second.touched++;
    if (it->second.touched == Frames2M) {
        promoteReservation(region, it->second);
        reservations_.erase(it);
    }
    return TouchResult::Faulted;
}

void
Process::promoteReservation(VAddr region, const Reservation &res)
{
    // Swap 512 4KB PTEs for one 2MB PTE. The 4KB translations change
    // (size-wise), so each must be shot down from the TLBs.
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        VAddr vbase = region + i * PageBytes4K;
        bool removed = pageTable_.unmap(vbase);
        panic_if(!removed, "promotion found an unmapped slot");
        fireInvalidate(vbase, PageSize::Size4K);
    }
    // Retire the (now empty) PT so the PD slot can hold the leaf.
    pageTable_.clearLevelEntry(region, pt::leafLevel(PageSize::Size2M));
    pageTable_.map(region, res.block << PageShift4K, PageSize::Size2M);
    faults4k_ -= Frames2M;
    ++faults2m_;
    resident4k_ -= Frames2M;
    ++resident2m_;
    residentSuper_.emplace(region, PageSize::Size2M);
}

bool
Process::demote2m(VAddr region)
{
    auto xlate = pageTable_.translate(region);
    if (!xlate || xlate->size != PageSize::Size2M)
        return false;
    if (!pageTable_.splitLeaf(region))
        return false; // no frame left for the child table
    const Pfn base = static_cast<Pfn>(xlate->pbase >> PageShift4K);
    // The one order-9 block becomes 512 individually owned, movable
    // 4KB frames: cold reclaim and compaction now work per frame.
    panic_if(!disown(base, mem::Order2M),
             "demoting a 2MB leaf whose block we do not own");
    mm_.phys().retagFrames(base, mem::Order2M, mem::FrameUse::AppSmall);
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        own(base + i, 0);
        mm_.registerMovable(base + i, this, region + i * PageBytes4K);
    }
    // One superpage-sized shootdown drops the stale 2MB entry from
    // every TLB level (mirror copies, coalesced runs straddling the
    // window) and the PWC paths through the region.
    fireInvalidate(region, PageSize::Size2M);
    // The region now holds 4KB mappings; the side-table entry also
    // keeps superpage re-faults from colliding with the new mid-level
    // table, so it must outlive the demotion even at count zero.
    smallIn2m_[region] = Frames2M;
    auto sub = subIn1g_.find(pageBase(region, PageSize::Size1G));
    if (sub != subIn1g_.end())
        sub->second += Frames2M - 1; // one 2MB leaf became 512 4KB ones
    resident2m_--;
    resident4k_ += Frames2M;
    residentSuper_.erase(region);
    demoted2m_.insert(region);
    ++demotions_;
    return true;
}

bool
Process::demote1g(VAddr region)
{
    auto xlate = pageTable_.translate(region);
    if (!xlate || xlate->size != PageSize::Size1G)
        return false;
    if (!pageTable_.splitLeaf(region))
        return false;
    const Pfn base = static_cast<Pfn>(xlate->pbase >> PageShift4K);
    panic_if(!disown(base, mem::Order1G),
             "demoting a 1GB leaf whose block we do not own");
    for (std::uint64_t i = 0; i < Frames2M; i++)
        own(base + i * Frames2M, mem::Order2M);
    fireInvalidate(region, PageSize::Size1G);
    // 512 2MB leaves now live under the region (their frames stay
    // AppHuge); the side-table entry blocks a 1GB re-fault over the
    // new mid-level table.
    subIn1g_[region] = Frames2M;
    resident1g_--;
    resident2m_ += Frames2M;
    residentSuper_.erase(region);
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        residentSuper_.emplace(region + i * PageBytes2M,
                               PageSize::Size2M);
    }
    ++demotions_;
    return true;
}

bool
Process::demoteOne()
{
    // Prefer a 2MB leaf: its 4KB children are immediately reclaimable,
    // while a 1GB demotion only yields more 2MB leaves.
    for (const auto &[region, size] : residentSuper_) {
        if (size == PageSize::Size2M)
            return demote2m(region);
    }
    if (!residentSuper_.empty())
        return demote1g(residentSuper_.begin()->first);
    return false;
}

std::uint64_t
Process::demoteStorm(std::uint64_t max)
{
    std::uint64_t done = 0;
    while (done < max && demoteOne())
        done++;
    if (done > 0) {
        // Freshly demoted regions should not bounce straight back.
        if (repromoteDeferShift_ < 6)
            repromoteDeferShift_++;
        repromoteDefer_ = 1ULL << (repromoteDeferShift_ & 63);
    }
    return done;
}

void
Process::dropSmallPage(VAddr vbase, Pfn pfn)
{
    bool removed = pageTable_.unmap(vbase);
    panic_if(!removed, "reclaim of an unmapped page");
    fireInvalidate(vbase, PageSize::Size4K);
    mm_.unregisterMovable(pfn);
    panic_if(!disown(pfn, 0), "reclaim of a frame we do not own");
    mm_.phys().freeFrames(pfn, 0);
    auto small = smallIn2m_.find(pageBase(vbase, PageSize::Size2M));
    panic_if(small == smallIn2m_.end() || small->second == 0,
             "reclaimed page missing from the 4KB side table");
    small->second--; // entry stays, even at zero: see demote2m()
    auto sub = subIn1g_.find(pageBase(vbase, PageSize::Size1G));
    if (sub != subIn1g_.end())
        sub->second--;
    resident4k_--;
    ++reclaims_;
}

void
Process::releaseEmptyRegion(VAddr region)
{
    auto small = smallIn2m_.find(region);
    panic_if(small == smallIn2m_.end() || small->second != 0,
             "releasing a region that still has mapped pages");
    pageTable_.clearLevelEntry(region, pt::leafLevel(PageSize::Size2M));
    // The PWC may hold the just-retired leaf table; shoot it down
    // before reclaimRetiredFrames() can free the frame.
    fireInvalidate(region, PageSize::Size2M);
    smallIn2m_.erase(small);
    demoted2m_.erase(region);
}

std::uint64_t
Process::reclaimColdPages(std::uint64_t want)
{
    std::uint64_t freed = 0;
    // Iterate over a snapshot: fully drained regions are released (and
    // erased from demoted2m_) as we go.
    std::vector<VAddr> regions(demoted2m_.begin(), demoted2m_.end());
    // Three escalating passes, like reclaim advancing from the
    // inactive list to the active list: not-accessed pages first, then
    // clean ones, then anything. No swap is modeled, so dropping a hot
    // page is degradation (it will refault), never data loss.
    for (int pass = 0; pass < 3 && freed < want; pass++) {
        for (VAddr region : regions) {
            if (freed >= want)
                break;
            if (demoted2m_.find(region) == demoted2m_.end())
                continue; // released in an earlier pass
            for (std::uint64_t slot = 0;
                 slot < Frames2M && freed < want; slot++) {
                const VAddr vbase = region + slot * PageBytes4K;
                auto x = pageTable_.translate(vbase);
                if (!x)
                    continue;
                if (pass == 0 && x->accessed)
                    continue;
                if (pass == 1 && x->dirty)
                    continue;
                dropSmallPage(vbase,
                              static_cast<Pfn>(x->pbase >> PageShift4K));
                freed++;
            }
            auto small = smallIn2m_.find(region);
            if (small != smallIn2m_.end() && small->second == 0)
                releaseEmptyRegion(region);
        }
    }
    return freed;
}

std::uint64_t
Process::abandonReservation(VAddr region)
{
    auto it = reservations_.find(region);
    panic_if(it == reservations_.end(),
             "abandoning a region with no reservation");
    const Pfn block = it->second.block;
    const std::uint32_t touched = it->second.touched;
    panic_if(!disown(block, mem::Order2M),
             "reservation block we do not own");
    std::uint64_t freed = 0;
    for (std::uint64_t slot = 0; slot < Frames2M; slot++) {
        const VAddr vbase = region + slot * PageBytes4K;
        const Pfn pfn = block + slot;
        if (pageTable_.translate(vbase)) {
            // A touched slot keeps its frame and its exact translation
            // (so no shootdown); it just becomes an ordinary movable
            // 4KB page.
            mm_.phys().retagFrames(pfn, 0, mem::FrameUse::AppSmall);
            mm_.registerMovable(pfn, this, vbase);
            own(pfn, 0);
        } else {
            mm_.phys().freeFrames(pfn, 0);
            freed++;
        }
    }
    panic_if(freed != Frames2M - touched,
             "reservation slack disagrees with its touched count");
    // The kept pages now count as fallback 4KB pages; the side-table
    // entry also blocks a fresh reservation from colliding with the
    // live mid-level table.
    smallIn2m_[region] = touched;
    reservations_.erase(it);
    reclaims_ += freed;
    return freed;
}

std::uint64_t
Process::reclaimMemory(std::uint64_t want)
{
    if (want == 0)
        return 0;
    std::uint64_t freed = 0;
    // 1. Reservation slack: real memory freed without one shootdown.
    //    Abandon the reservation with the most untouched slots first.
    while (freed < want && !reservations_.empty()) {
        VAddr victim = 0;
        std::uint32_t victim_touched = 0;
        bool have = false;
        for (const auto &[region, res] : reservations_) {
            if (!have || res.touched < victim_touched ||
                (res.touched == victim_touched && region < victim)) {
                victim = region;
                victim_touched = res.touched;
                have = true;
            }
        }
        freed += abandonReservation(victim);
    }
    // 2. Cold pages from regions demoted earlier.
    if (freed < want)
        freed += reclaimColdPages(want - freed);
    // 3. Demote superpages to expose more reclaimable pages.
    while (freed < want && demoteOne())
        freed += reclaimColdPages(want - freed);
    // 4. Retired page-table frames (their translations were shot down
    //    when the tables were retired).
    if (freed < want) {
        const std::uint64_t released = pageTable_.reclaimRetiredFrames();
        reclaims_ += released;
        freed += released;
    }
    return freed;
}

/**
 * Free-memory fraction below which re-promotion is not attempted. The
 * pressure experiments run with ~12% steady free memory and transient
 * bursts that halve it, so the threshold sits between the two: burst
 * windows read as pressure, burst release reads as pressure fading.
 */
constexpr double RepromoteFreeFraction = 0.08;

/**
 * Minimum mapped slots for a collapse re-promotion — the analogue of
 * khugepaged's max_ptes_none: a region must be at least half populated
 * before it is worth spending a whole 2MB block on it.
 */
constexpr std::uint64_t MinMappedForCollapse = Frames2M / 2;

bool
Process::tryRepromote2m(VAddr region)
{
    // Survey the region: mapped slots must all still be 4KB leaves;
    // reclaimed holes are tolerated (they become backed by the new
    // superpage, as khugepaged's max_ptes_none allows).
    Pfn base = 0;
    bool contiguous = true;
    std::uint64_t mapped = 0;
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        auto x = pageTable_.translate(region + i * PageBytes4K);
        if (!x) {
            contiguous = false;
            continue;
        }
        if (x->size != PageSize::Size4K)
            return false;
        const Pfn pfn = static_cast<Pfn>(x->pbase >> PageShift4K);
        if (mapped == 0 && i == 0) {
            base = pfn;
            contiguous = (base & (Frames2M - 1)) == 0;
        } else if (pfn != base + i) {
            contiguous = false;
        }
        mapped++;
    }
    if (mapped < MinMappedForCollapse)
        return false;
    Pfn dest = base;
    if (!contiguous) {
        // khugepaged-style collapse: migrate the 512 pages into a
        // fresh block. Reclaim is disabled for this allocation so
        // rebuilding one superpage can never demote another.
        auto block = mm_.allocContiguous(mem::Order2M,
                                         mem::FrameUse::AppHuge,
                                         true, false);
        if (!block)
            return false;
        dest = *block;
    }
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        const VAddr vbase = region + i * PageBytes4K;
        // Re-translate: the collapse allocation may have compacted our
        // own movable frames to new homes.
        auto x = pageTable_.translate(vbase);
        if (!x)
            continue; // hole: the new superpage will back it
        const Pfn pfn = static_cast<Pfn>(x->pbase >> PageShift4K);
        bool removed = pageTable_.unmap(vbase);
        panic_if(!removed, "re-promotion lost a mapped slot");
        mm_.unregisterMovable(pfn);
        panic_if(!disown(pfn, 0), "re-promotion of a frame we do not own");
        if (!contiguous)
            mm_.phys().freeFrames(pfn, 0); // copied into the new block
    }
    pageTable_.clearLevelEntry(region, pt::leafLevel(PageSize::Size2M));
    pageTable_.map(region, static_cast<PAddr>(dest) << PageShift4K,
                   PageSize::Size2M);
    // One 2MB-sized shootdown drops every stale 4KB entry in the
    // window and the PWC path through the now-retired table.
    fireInvalidate(region, PageSize::Size2M);
    if (contiguous) {
        mm_.phys().retagFrames(dest, mem::Order2M,
                               mem::FrameUse::AppHuge);
    }
    own(dest, mem::Order2M);
    smallIn2m_.erase(region);
    auto sub = subIn1g_.find(pageBase(region, PageSize::Size1G));
    if (sub != subIn1g_.end())
        sub->second -= mapped - 1; // `mapped` 4KB leaves became one 2MB
    resident4k_ -= mapped;
    resident2m_++;
    demoted2m_.erase(region);
    residentSuper_.emplace(region, PageSize::Size2M);
    ++repromotions_;
    return true;
}

void
Process::maintain()
{
    if (demoted2m_.empty())
        return;
    if (repromoteDefer_ > 0) {
        repromoteDefer_--;
        return;
    }
    if (mm_.freeFraction() < RepromoteFreeFraction) {
        // Still under pressure: check again later, with backoff.
        if (repromoteDeferShift_ < 6)
            repromoteDeferShift_++;
        repromoteDefer_ = 1ULL << (repromoteDeferShift_ & 63);
        return;
    }
    // Bounded work per call: a few candidates, lowest address first.
    unsigned promoted = 0;
    unsigned examined = 0;
    auto it = demoted2m_.begin();
    while (it != demoted2m_.end() && examined < 4) {
        const VAddr region = *it;
        ++it; // advance before tryRepromote2m erases the region
        examined++;
        if (tryRepromote2m(region))
            promoted++;
    }
    if (promoted == 0) {
        if (repromoteDeferShift_ < 6)
            repromoteDeferShift_++;
        repromoteDefer_ = 1ULL << (repromoteDeferShift_ & 63);
    } else {
        repromoteDeferShift_ = 0;
        repromoteDefer_ = 0;
    }
}

void
Process::audit(contracts::AuditReport &report) const
{
    pageTable_.audit(report);

    // One leaf walk accumulates everything the fault counters and the
    // THS/reservation side tables claim about the mapped state.
    std::uint64_t bytes4k = 0;
    std::uint64_t bytes2m = 0;
    std::uint64_t bytes1g = 0;
    std::unordered_map<VAddr, std::uint32_t> small_in_2m;
    std::unordered_map<VAddr, std::uint32_t> sub_in_1g;
    std::map<VAddr, PageSize> super;

    std::uint64_t stray_leaves = 0;
    pageTable_.forEachLeaf([&](const pt::Translation &xlate) {
        const std::uint64_t bytes = pageBytes(xlate.size);
        switch (xlate.size) {
          case PageSize::Size4K:
            bytes4k += bytes;
            small_in_2m[pageBase(xlate.vbase, PageSize::Size2M)]++;
            break;
          case PageSize::Size2M: bytes2m += bytes; break;
          case PageSize::Size1G: bytes1g += bytes; break;
        }
        if (xlate.size != PageSize::Size1G)
            sub_in_1g[pageBase(xlate.vbase, PageSize::Size1G)]++;
        if (xlate.size != PageSize::Size4K)
            super.emplace(xlate.vbase, xlate.size);

        const bool in_vma = inVma(xlate.vbase)
                            && inVma(xlate.vbase + bytes - 1);
        // Owned blocks are naturally aligned and disjoint, so the one
        // holding the leaf's first frame starts at an aligned base.
        const Pfn first = xlate.pbase >> PageShift4K;
        const std::uint64_t frames = bytes >> PageShift4K;
        bool backed = false;
        for (unsigned order = 0; order <= mem::Order1G && !backed;
             order++) {
            const Pfn base = alignDown(first, pow2(order));
            backed = owns(base, order)
                     && first + frames <= base + pow2(order);
        }
        if ((!in_vma || !backed) && stray_leaves++ < 8) {
            MIX_AUDIT_CHECK(report, false,
                            "%s leaf at 0x%llx -> 0x%llx is %s%s%s",
                            pageSizeName(xlate.size),
                            (unsigned long long)xlate.vbase,
                            (unsigned long long)xlate.pbase,
                            in_vma ? "" : "outside every VMA",
                            !in_vma && !backed ? " and " : "",
                            backed ? ""
                                   : "backed by frames this process "
                                     "does not own");
        }
    });
    MIX_AUDIT_CHECK(report, stray_leaves <= 8,
                    "%llu further stray leaves",
                    (unsigned long long)(stray_leaves - 8));

    MIX_AUDIT_CHECK(report, bytes4k == residentBytes(PageSize::Size4K),
                    "tree holds %llu 4KB-mapped bytes but the "
                    "residency counters say %llu",
                    (unsigned long long)bytes4k,
                    (unsigned long long)residentBytes(PageSize::Size4K));
    MIX_AUDIT_CHECK(report, bytes2m == residentBytes(PageSize::Size2M),
                    "tree holds %llu 2MB-mapped bytes but the "
                    "residency counters say %llu",
                    (unsigned long long)bytes2m,
                    (unsigned long long)residentBytes(PageSize::Size2M));
    MIX_AUDIT_CHECK(report, bytes1g == residentBytes(PageSize::Size1G),
                    "tree holds %llu 1GB-mapped bytes but the "
                    "residency counters say %llu",
                    (unsigned long long)bytes1g,
                    (unsigned long long)residentBytes(PageSize::Size1G));

    // The side tables are unordered; walk them in sorted key order so
    // the audit report is byte-identical regardless of insertion order.
    std::vector<VAddr> regions2m;
    regions2m.reserve(smallIn2m_.size());
    for (const auto &kv : smallIn2m_)
        regions2m.push_back(kv.first);
    std::sort(regions2m.begin(), regions2m.end());

    // A smallIn2m_ entry blocks superpage use for its region, and its
    // count is exactly the fallback 4KB pages mapped there (never the
    // reservation-backed ones, which keep their own counter).
    for (VAddr region : regions2m) {
        const std::uint32_t count = smallIn2m_.at(region);
        auto found = small_in_2m.find(region);
        const std::uint32_t actual =
            found == small_in_2m.end() ? 0 : found->second;
        MIX_AUDIT_CHECK(report, actual == count,
                        "2MB region 0x%llx claims %u fallback 4KB "
                        "pages but the tree holds %u",
                        (unsigned long long)region, count, actual);
        MIX_AUDIT_CHECK(report,
                        reservations_.find(region)
                            == reservations_.end(),
                        "2MB region 0x%llx has both fallback 4KB "
                        "pages and an active reservation",
                        (unsigned long long)region);
    }
    std::vector<VAddr> regions1g;
    regions1g.reserve(subIn1g_.size());
    for (const auto &kv : subIn1g_)
        regions1g.push_back(kv.first);
    std::sort(regions1g.begin(), regions1g.end());
    for (VAddr region : regions1g) {
        const std::uint32_t count = subIn1g_.at(region);
        auto found = sub_in_1g.find(region);
        const std::uint32_t actual =
            found == sub_in_1g.end() ? 0 : found->second;
        MIX_AUDIT_CHECK(report, actual == count,
                        "1GB region 0x%llx claims %u sub-1GB pages "
                        "but the tree holds %u",
                        (unsigned long long)region, count, actual);
    }
    std::vector<VAddr> reserved;
    reserved.reserve(reservations_.size());
    for (const auto &kv : reservations_)
        reserved.push_back(kv.first);
    std::sort(reserved.begin(), reserved.end());
    for (VAddr region : reserved) {
        const auto &res = reservations_.at(region);
        MIX_AUDIT_CHECK(report, res.touched < Frames2M,
                        "reservation at 0x%llx is fully built (%u "
                        "slots) but was never promoted",
                        (unsigned long long)region, res.touched);
        auto found = small_in_2m.find(region);
        const std::uint32_t actual =
            found == small_in_2m.end() ? 0 : found->second;
        MIX_AUDIT_CHECK(report, actual == res.touched,
                        "reservation at 0x%llx touched %u slots but "
                        "the tree holds %u 4KB pages there",
                        (unsigned long long)region, res.touched,
                        actual);
        MIX_AUDIT_CHECK(report, owns(res.block, mem::Order2M),
                        "reserved block 0x%llx is not owned as an "
                        "order-%u allocation",
                        (unsigned long long)res.block, mem::Order2M);
    }

    // Lifecycle side tables: the superpage registry mirrors the tree's
    // superpage leaves exactly, and every demoted region really is
    // split (no leaf at the region, a live 4KB side-table entry, and no
    // reservation squatting on the same mid-level table).
    MIX_AUDIT_CHECK(report, super.size() == residentSuper_.size(),
                    "tree holds %llu superpage leaves but the registry "
                    "tracks %llu",
                    (unsigned long long)super.size(),
                    (unsigned long long)residentSuper_.size());
    for (const auto &[region, size] : residentSuper_) {
        auto found = super.find(region);
        MIX_AUDIT_CHECK(report,
                        found != super.end() && found->second == size,
                        "registry claims a %s leaf at 0x%llx but the "
                        "tree disagrees",
                        pageSizeName(size), (unsigned long long)region);
    }
    for (VAddr region : demoted2m_) {
        MIX_AUDIT_CHECK(report,
                        smallIn2m_.find(region) != smallIn2m_.end(),
                        "demoted region 0x%llx missing from the 4KB "
                        "side table",
                        (unsigned long long)region);
        MIX_AUDIT_CHECK(report,
                        reservations_.find(region)
                            == reservations_.end(),
                        "demoted region 0x%llx still has a reservation",
                        (unsigned long long)region);
        MIX_AUDIT_CHECK(report, super.find(region) == super.end(),
                        "demoted region 0x%llx still has a superpage "
                        "leaf",
                        (unsigned long long)region);
    }
}

void
Process::relocate(std::uint64_t tag, Pfn from, Pfn to)
{
    VAddr vbase = tag;
    pageTable_.remap(vbase, to << PageShift4K);
    panic_if(!disown(from, 0), "relocate of frame we do not own");
    own(to, 0);
    ++migrations_;
    fireInvalidate(vbase, PageSize::Size4K);
}

bool
Process::holdsMovable(std::uint64_t tag, Pfn pfn) const
{
    const auto xlate = pageTable_.translate(tag);
    return owns(pfn, 0) && xlate && xlate->size == PageSize::Size4K
           && xlate->pfn4k() == pfn;
}

void
Process::own(Pfn pfn, unsigned order)
{
    std::uint8_t &slot = ownedFrames_.at(pfn);
    panic_if(slot != 0, "frame 0x%llx owned twice",
             (unsigned long long)pfn);
    slot = static_cast<std::uint8_t>(order + 1);
}

bool
Process::disown(Pfn pfn, unsigned order)
{
    if (!owns(pfn, order))
        return false;
    ownedFrames_.at(pfn) = 0;
    return true;
}

bool
Process::owns(Pfn pfn, unsigned order) const
{
    const std::uint8_t *slot = ownedFrames_.find(pfn);
    return slot && *slot == order + 1;
}

} // namespace mixtlb::os
