/**
 * @file
 * Reorder buffer: an age-ordered window of in-flight DynInsts, addressed
 * by sequence number. Also the structure the re-execution engine walks
 * (its rex-head pointer is a sequence number into this window).
 *
 * Storage is a fixed-capacity power-of-two ring buffer: slot addresses
 * are stable for an entry's whole lifetime (the IQ, LSU queues, and rex
 * store buffer hold raw DynInst pointers into it), pushes and pops are
 * O(1), and iteration is a contiguous cache-friendly walk. Each ring
 * slot has a parallel DynInstCold side-record (cold()) so the walked
 * array carries only the hot two-cache-line records.
 *
 * Lookup by sequence number exploits the seq->slot invariant: entries
 * are strictly increasing in seq, and seqs are dense (+1 per slot)
 * except across squash points, where the fetch counter keeps running
 * while the squashed instructions disappear. The slot guess
 * `head + (seq - headSeq)` is therefore exact in the common dense case
 * (O(1)); a gap only ever moves the target to an *older* slot, so a
 * miss falls back to a binary search of `[head, guess]`.
 */

#ifndef SVW_CPU_ROB_HH
#define SVW_CPU_ROB_HH

#include <cstddef>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "cpu/dyninst.hh"

namespace svw {

/** Age-ordered instruction window. Entries are sorted by seq. */
class ROB
{
  public:
    explicit ROB(unsigned capacity)
        : cap(capacity)
    {
        std::size_t ring = 1;
        while (ring < cap)
            ring <<= 1;
        mask = ring - 1;
        slots.resize(ring);
        colds.resize(ring);
    }

    bool full() const { return count >= cap; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    unsigned capacity() const { return cap; }

    DynInst &push(DynInst &&inst, const DynInstCold &cold)
    {
        svw_assert(count < cap, "ROB overflow");
        DynInst &slot = at(count);
        slot = std::move(inst);
        colds[(headPos + count) & mask] = cold;
        ++count;
        return slot;
    }

    DynInst &push(DynInst &&inst)
    {
        return push(std::move(inst), DynInstCold{});
    }

    /** Cold side-record of a live ROB entry (parallel arena, same ring
     * slot). @p inst must be a reference into this ROB's storage. */
    DynInstCold &cold(const DynInst &inst) { return colds[slotOf(inst)]; }
    const DynInstCold &cold(const DynInst &inst) const
    {
        return colds[slotOf(inst)];
    }

    DynInst &head() { return at(0); }
    const DynInst &head() const { return at(0); }
    DynInst &tail() { return at(count - 1); }
    const DynInst &tail() const { return at(count - 1); }

    void popHead()
    {
        ++headPos;
        --count;
    }

    void popTail() { --count; }

    /** Number of entries with seq <= @p keepSeq: the age-ordered
     * prefix a squash keeping @p keepSeq leaves. O(log n). */
    std::size_t countUpTo(InstSeqNum keepSeq) const
    {
        std::size_t lo = 0, hi = count;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (at(mid).seq <= keepSeq)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /**
     * Ring-slot view. A live entry's slot never changes, and walking
     * slots from headSlot() around the ring visits entries in age
     * order; the issue queue keys its entries by slot on that basis.
     */
    std::size_t ringSlots() const { return mask + 1; }
    std::size_t headSlot() const { return headPos & mask; }
    /** Slot of the entry @p pos places behind the head. */
    std::size_t slotAt(std::size_t pos) const
    {
        return (headPos + pos) & mask;
    }
    /** Slot of a live entry (@p inst must live in this ROB). */
    std::size_t slotOf(const DynInst &inst) const
    {
        return static_cast<std::size_t>(&inst - slots.data());
    }

    /** Find by sequence number; O(1) when seqs are dense from the head.
     * nullptr if absent (younger, older, or squashed out). This and
     * lowerBound are always inlined: they sit on the per-cycle drain
     * paths, and under LTO their inlining otherwise moves with the size
     * of the whole program. */
    [[gnu::always_inline]] DynInst *findBySeq(InstSeqNum seq)
    {
        DynInst *inst = lowerBound(seq);
        return inst && inst->seq == seq ? inst : nullptr;
    }

    /** First entry with seq >= @p seq (nullptr if none). */
    [[gnu::always_inline]] DynInst *lowerBound(InstSeqNum seq)
    {
        if (count == 0)
            return nullptr;
        const InstSeqNum headSeq = at(0).seq;
        if (seq <= headSeq)
            return &at(0);
        const std::uint64_t offset = seq - headSeq;
        // Entry k has seq >= headSeq + k, so the answer (if any) lies at
        // an index <= offset. Dense fast path: the guess slot hits.
        std::size_t hi = count - 1;
        if (offset <= hi) {
            DynInst &guess = at(offset);
            if (guess.seq == seq)
                return &guess;
            hi = offset;
        } else if (at(hi).seq < seq) {
            return nullptr;
        }
        // Gap from a squash: binary search [lo, hi] for the first entry
        // with seq' >= seq (at(hi).seq >= seq holds here).
        std::size_t lo = 0;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (at(mid).seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        return &at(lo);
    }

    /** Forward iterator over [head, tail] in age order. */
    template <bool IsConst>
    class Iter
    {
        using RobT = std::conditional_t<IsConst, const ROB, ROB>;
        using ValueT = std::conditional_t<IsConst, const DynInst, DynInst>;

      public:
        Iter(RobT *r, std::size_t i) : rob(r), idx(i) {}
        ValueT &operator*() const { return rob->at(idx); }
        ValueT *operator->() const { return &rob->at(idx); }
        Iter &operator++() { ++idx; return *this; }
        bool operator==(const Iter &o) const { return idx == o.idx; }
        bool operator!=(const Iter &o) const { return idx != o.idx; }

      private:
        RobT *rob;
        std::size_t idx;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, count); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count); }

  private:
    DynInst &at(std::size_t idx)
    {
        return slots[(headPos + idx) & mask];
    }
    const DynInst &at(std::size_t idx) const
    {
        return slots[(headPos + idx) & mask];
    }

    unsigned cap;
    std::size_t mask = 0;
    std::uint64_t headPos = 0;  ///< monotonic; slot = pos & mask
    std::size_t count = 0;
    std::vector<DynInst> slots;
    std::vector<DynInstCold> colds;  ///< parallel cold arena (by slot)
};

} // namespace svw

#endif // SVW_CPU_ROB_HH
