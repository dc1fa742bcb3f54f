/**
 * @file
 * A structure-of-arrays MRU set: a packed 64-bit tag lane scanned on
 * lookup, with the full entry payloads in a parallel array touched
 * only on a tag match.
 *
 * Every TLB design in this simulator keeps its ways as a small vector
 * in MRU order (front = MRU) and probes with a linear `std::find_if`
 * over full entries. That scan loads each entry's whole struct (40-80
 * bytes) to evaluate a predicate that almost always fails on the
 * first compared field. TagLaneSet splits the match-relevant bits
 * into a contiguous `std::uint64_t` lane: the probe scans packed tags
 * (simd::firstEqual, DESIGN.md section 13) and only dereferences the
 * payload to *confirm* a candidate.
 *
 * Exactness contract: the tag is a pure function of the fields the
 * design's match predicate reads, so a true match always has equal
 * tags (no false negatives). Tags may collide (packing wraps), so
 * every tag hit is re-checked with the design's full predicate and
 * the scan continues past failed confirms — the first confirmed index
 * is therefore identical to the first `std::find_if` match, and all
 * mutators keep the two arrays in lockstep, making the SoA layout
 * bit-exact with the reference scan.
 */

#ifndef MIXTLB_TLB_TAG_LANE_HH
#define MIXTLB_TLB_TAG_LANE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/simd.hh"

namespace mixtlb::tlb
{

template <typename Payload>
class TagLaneSet
{
  public:
    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    void
    reserve(std::size_t n)
    {
        tags_.reserve(n);
        payloads_.reserve(n);
    }

    std::size_t size() const { return tags_.size(); }
    bool empty() const { return tags_.empty(); }

    std::uint64_t tag(std::size_t i) const { return tags_[i]; }
    Payload &payload(std::size_t i) { return payloads_[i]; }
    const Payload &payload(std::size_t i) const { return payloads_[i]; }

    /** Whole payload array (cold paths: audits, debug dumps). */
    const std::vector<Payload> &payloads() const { return payloads_; }

    /** Retag entry @p i (when a mutation changes its match key). */
    void setTag(std::size_t i, std::uint64_t tag) { tags_[i] = tag; }

    /**
     * First index whose tag equals @p tag and whose payload passes
     * @p confirm; scans on past tag collisions that fail confirm.
     *
     * The lane scan (simd::firstEqual) returns the *lowest* matching
     * index and resumes from i + 1 after a failed confirm, so the
     * first confirmed index is identical to the scalar
     * tag-compare-then-confirm loop's.
     */
    // mixcheck: soa-scan
    template <typename Confirm>
    std::size_t
    findTag(std::uint64_t tag, Confirm &&confirm) const
    {
        const std::uint64_t *lane = tags_.data();
        const std::size_t n = tags_.size();
        simd::prefetchRead(payloads_.data());
        for (std::size_t i = simd::firstEqual(lane, n, tag); i != npos;
             i = simd::firstEqual(lane, n, tag, i + 1)) {
            if (confirm(payloads_[i]))
                return i;
        }
        return npos;
    }

    /**
     * findTag against @p ncands candidate tags at once (designs whose
     * probe can match one window per page size). First index in MRU
     * order matching *any* candidate and confirming wins — the same
     * order a full-predicate scan yields.
     */
    // mixcheck: soa-scan
    template <typename Confirm>
    std::size_t
    findTagAny(const std::uint64_t *cands, unsigned ncands,
               Confirm &&confirm) const
    {
        const std::uint64_t *lane = tags_.data();
        const std::size_t n = tags_.size();
        simd::prefetchRead(payloads_.data());
        for (std::size_t i = simd::firstEqualAny(lane, n, cands, ncands);
             i != npos;
             i = simd::firstEqualAny(lane, n, cands, ncands, i + 1)) {
            if (confirm(payloads_[i]))
                return i;
        }
        return npos;
    }

    /** Reference scan: first index whose payload satisfies @p pred. */
    template <typename Pred>
    std::size_t
    findIf(Pred &&pred) const
    {
        for (std::size_t i = 0; i < payloads_.size(); ++i) {
            if (pred(payloads_[i]))
                return i;
        }
        return npos;
    }

    /** `std::rotate(begin, it, it + 1)`: move entry @p i to MRU. */
    void
    rotateToFront(std::size_t i)
    {
        std::rotate(tags_.begin(), tags_.begin() + i,
                    tags_.begin() + i + 1);
        std::rotate(payloads_.begin(), payloads_.begin() + i,
                    payloads_.begin() + i + 1);
    }

    void
    insertFront(std::uint64_t tag, Payload payload)
    {
        tags_.insert(tags_.begin(), tag);
        payloads_.insert(payloads_.begin(), std::move(payload));
    }

    void
    popBack()
    {
        tags_.pop_back();
        payloads_.pop_back();
    }

    void
    eraseAt(std::size_t i)
    {
        tags_.erase(tags_.begin() + i);
        payloads_.erase(payloads_.begin() + i);
    }

    /** Stable `std::erase_if` on payloads; returns entries removed. */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        std::size_t out = 0;
        for (std::size_t i = 0; i < payloads_.size(); ++i) {
            if (!pred(payloads_[i])) {
                if (out != i) {
                    tags_[out] = tags_[i];
                    payloads_[out] = std::move(payloads_[i]);
                }
                ++out;
            }
        }
        const std::size_t removed = payloads_.size() - out;
        tags_.resize(out);
        payloads_.resize(out);
        return removed;
    }

    void
    clear()
    {
        tags_.clear();
        payloads_.clear();
    }

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<Payload> payloads_;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_TAG_LANE_HH
