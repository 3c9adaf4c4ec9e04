#include "cpu/iq.hh"

#include <algorithm>

namespace svw {

void
IssueQueue::squashAfter(InstSeqNum keepSeq, std::size_t first,
                        std::size_t n)
{
    // Clear the live and awake bits of [first, first + n), a word at a
    // time, splitting at the ring's end. Wake records for the freed
    // slots then fail validation and just drop.
    while (n > 0) {
        const std::size_t end = std::min(first + n, entries_.size());
        n -= end - first;
        for (std::size_t i = first; i < end;) {
            const std::size_t wordEnd = std::min((i | 63) + 1, end);
            const unsigned width = static_cast<unsigned>(wordEnd - i);
            const std::uint64_t m = (width == 64
                                         ? ~std::uint64_t(0)
                                         : (std::uint64_t(1) << width) - 1)
                                    << (i & 63);
            live -= std::popcount(live_[i >> 6] & m);
            live_[i >> 6] &= ~m;
            if (!(awake_[i >> 6] &= ~m))
                awakeWords_ &= ~(std::uint64_t(1) << (i >> 6));
            i = wordEnd;
        }
        first = 0;
    }
    std::erase_if(sqWaiters_, [keepSeq](const SqWaitRec &r) {
        return r.rec.seq > keepSeq;
    });
}

} // namespace svw
