/**
 * @file
 * A sparse per-frame table indexed by frame number.
 *
 * The OS model keeps a little state for some frames of a machine that
 * can hold millions (the movable registry, page-table backing store,
 * each process's owned blocks). Hashing the frame number costs a node
 * per entry and a hash per lookup; a flat array costs sizeof(T) for
 * every frame of a 64GB machine. FrameTable sits between: a directory
 * with one pointer per 2MB of frames, and a chunk of 512 entries
 * allocated on the first write into that 2MB. A lookup is two indexed
 * loads, memory is ChunkFrames * sizeof(T) per chunk touched, and
 * iteration runs in ascending frame order.
 */

#ifndef MIXTLB_MEM_FRAME_TABLE_HH
#define MIXTLB_MEM_FRAME_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mixtlb::mem
{

/**
 * Per-frame entries of type T over @p total_frames frames. An entry
 * equal to T{} is empty; chunks start with every entry empty.
 */
template <typename T>
class FrameTable
{
  public:
    static constexpr unsigned ChunkShift = 9;
    /** Frames per chunk: one 2MB block. */
    static constexpr std::uint64_t ChunkFrames = 1ULL << ChunkShift;
    using Chunk = std::array<T, ChunkFrames>;

    explicit FrameTable(std::uint64_t total_frames)
        : totalFrames_(total_frames),
          chunks_((total_frames + ChunkFrames - 1) >> ChunkShift)
    {}

    /** The entry for @p pfn, or null if its chunk was never written. */
    T *find(Pfn pfn)
    {
        const std::uint64_t idx = pfn >> ChunkShift;
        if (idx >= chunks_.size() || !chunks_[idx])
            return nullptr;
        return &(*chunks_[idx])[pfn & (ChunkFrames - 1)];
    }

    const T *find(Pfn pfn) const
    {
        return const_cast<FrameTable *>(this)->find(pfn);
    }

    /** The entry for @p pfn, allocating its chunk on first use. */
    T &at(Pfn pfn)
    {
        panic_if(pfn >= totalFrames_, "frame 0x%llx past the table",
                 (unsigned long long)pfn);
        auto &chunk = chunks_[pfn >> ChunkShift];
        if (!chunk)
            chunk = std::make_unique<Chunk>();
        return (*chunk)[pfn & (ChunkFrames - 1)];
    }

    /**
     * Empty the @p n entries from @p pfn, skipping chunks that were
     * never written.
     */
    void clear(Pfn pfn, std::uint64_t n)
    {
        for (const Pfn end = pfn + n; pfn < end;) {
            const Pfn stop = std::min(end, (pfn | (ChunkFrames - 1)) + 1);
            if (T *entry = find(pfn)) {
                for (Pfn i = pfn; i < stop; i++)
                    *entry++ = T{};
            }
            pfn = stop;
        }
    }

    /** Call @p fn(pfn, entry) for every non-empty entry, pfn ascending. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (std::uint64_t idx = 0; idx < chunks_.size(); idx++) {
            if (!chunks_[idx])
                continue;
            const Chunk &chunk = *chunks_[idx];
            for (std::uint64_t i = 0; i < ChunkFrames; i++) {
                if (!(chunk[i] == T{}))
                    fn((idx << ChunkShift) + i, chunk[i]);
            }
        }
    }

    /** Chunks allocated so far (memory is this times sizeof(Chunk)). */
    std::uint64_t chunksAllocated() const
    {
        std::uint64_t n = 0;
        for (const auto &chunk : chunks_)
            n += chunk != nullptr;
        return n;
    }

  private:
    std::uint64_t totalFrames_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
};

} // namespace mixtlb::mem

#endif // MIXTLB_MEM_FRAME_TABLE_HH
