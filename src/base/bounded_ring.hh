/**
 * @file
 * Fixed-capacity FIFO ring over a power-of-two slot array.
 *
 * A drop-in for the bounded std::deque / std::vector queues on the
 * simulator's hot path (the fetch queue, the LSU's LQ/SQ): no per-push
 * allocation, O(1) pops at both ends, and slot addresses are stable
 * while an element is live. Index 0 is the oldest element. Capacity is
 * fixed at construction; pushing past it is a programming error
 * (svw_assert).
 */

#ifndef SVW_BASE_BOUNDED_RING_HH
#define SVW_BASE_BOUNDED_RING_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace svw {

/** Bounded FIFO; push at the back, pop at either end. */
template <typename T>
class BoundedRing
{
  public:
    explicit BoundedRing(std::size_t capacity) : cap(capacity)
    {
        std::size_t ring = 1;
        while (ring < cap)
            ring <<= 1;
        mask = ring - 1;
        slots.resize(ring);
    }

    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }

    void push_back(T &&v)
    {
        svw_assert(count < cap, "BoundedRing overflow");
        slots[(headPos + count) & mask] = std::move(v);
        ++count;
    }

    T &front() { return slots[headPos & mask]; }
    const T &front() const { return slots[headPos & mask]; }
    T &back() { return slots[(headPos + count - 1) & mask]; }
    const T &back() const { return slots[(headPos + count - 1) & mask]; }

    /** The @p i-th oldest element (0 = front). */
    T &operator[](std::size_t i) { return slots[(headPos + i) & mask]; }
    const T &operator[](std::size_t i) const
    {
        return slots[(headPos + i) & mask];
    }

    void pop_front()
    {
        ++headPos;
        --count;
    }

    void pop_back() { --count; }

    void clear()
    {
        headPos = 0;
        count = 0;
    }

  private:
    std::size_t cap;
    std::size_t mask = 0;
    std::uint64_t headPos = 0;
    std::size_t count = 0;
    std::vector<T> slots;
};

} // namespace svw

#endif // SVW_BASE_BOUNDED_RING_HH
