/**
 * @file
 * Flat FIFO ring buffer for the simulator's small pending queues.
 *
 * The delayed predicate file and the PGU each keep a short queue of
 * in-flight writes that is pushed and popped once per predicate
 * define - a fifth to a third of an if-converted instruction stream -
 * so the queue operations sit directly on the replay hot path.
 * std::deque pays chunk-map indirection and out-of-line growth logic
 * for FIFO access; this ring is a single power-of-two vector with
 * monotonic head/tail cursors, so push/pop/front/empty are a handful
 * of inline instructions. Capacity grows by doubling and is never
 * given back (the queues are bounded by the visibility delay, a few
 * dozen entries).
 *
 * Deliberately minimal: exactly the deque surface the two users need
 * (push_back, pop_front, front, empty, size, clear) plus forEach, which
 * visits elements in the same order as iterating a deque did.
 */

#ifndef PABP_UTIL_RING_QUEUE_HH
#define PABP_UTIL_RING_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace pabp {

/** Growable single-ended FIFO over a power-of-two buffer. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return head == tail; }
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(tail - head);
    }

    const T &
    front() const
    {
        pabp_assert(!empty());
        return buf[head & mask];
    }

    void
    push_back(const T &v)
    {
        if (size() == buf.size())
            grow();
        buf[tail & mask] = v;
        ++tail;
    }

    void
    pop_front()
    {
        pabp_assert(!empty());
        ++head;
    }

    void clear() { head = tail = 0; }

    /** Visit every element oldest-first (batch-view snapshots). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t i = head; i != tail; ++i)
            fn(buf[i & mask]);
    }

  private:
    void
    grow()
    {
        const std::size_t n = size();
        std::vector<T> next(buf.empty() ? 16 : buf.size() * 2);
        for (std::uint64_t i = head; i != tail; ++i)
            next[static_cast<std::size_t>(i - head)] = buf[i & mask];
        buf = std::move(next);
        head = 0;
        tail = n;
        mask = buf.size() - 1;
    }

    std::vector<T> buf;
    /** Monotonic cursors; element i lives at buf[i & mask]. */
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::uint64_t mask = 0;
};

} // namespace pabp

#endif // PABP_UTIL_RING_QUEUE_HH
