// Bounded single-producer / single-consumer ring with an overflow lane.
//
// The sharded simulation engine routes cross-shard messages through one of
// these per (sender shard, receiver shard) pair.  Access is phase-disciplined
// on top of the usual SPSC contract: exactly one thread - whichever runs the
// sending shard - pushes during a parallel window, and the coordinating
// thread drains everything at the next epoch barrier (which it reaches only
// after every shard of the window has finished, through the engine's
// release/acquire done count, so the ring is never popped concurrently
// with a push).  The atomic indices make the ring independently correct -
// and TSan-clean - even without that external barrier.
//
// Capacity is fixed at construction.  When the ring fills mid-window the
// producer appends to a plain overflow vector instead of blocking (a shard
// can never wait: the consumer only drains at barriers, so blocking would
// deadlock the window).  drain() yields ring items first, then overflow, so
// the consumer always observes the producer's exact push order.
#pragma once

// mtds:lock-free(SPSC ring; acquire/release on head_/tail_ order the slots)
// One producer thread per parallel window, one consumer at the epoch
// barrier; the engine's claim/done hand-off orders the overflow lane.
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace mtds::util {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity = 256)
      : slots_(capacity == 0 ? 1 : capacity) {}

  // Movable for container setup only - moving a ring that any thread is
  // concurrently touching is a bug (the mailbox matrix is built before the
  // worker pool starts).
  SpscRing(SpscRing&& other) noexcept
      : slots_(std::move(other.slots_)),
        overflow_(std::move(other.overflow_)),
        head_(other.head_.load(std::memory_order_relaxed)),
        tail_(other.tail_.load(std::memory_order_relaxed)) {}
  SpscRing& operator=(SpscRing&&) = delete;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side.  Never blocks; spills to the overflow lane when full.
  // mtds:no-alloc
  void push(T item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) % slots_.size();
    if (next == head_.load(std::memory_order_acquire) || !overflow_.empty()) {
      // Once anything has spilled, keep spilling: push order must stay
      // intact across the ring/overflow seam until the next drain.
      // mtds:alloc-ok(overflow lane; fills only when a window outruns ring capacity, and the vector keeps its capacity across drains so repeat spills are allocation-free)
      overflow_.push_back(std::move(item));
      return;
    }
    slots_[tail] = std::move(item);
    tail_.store(next, std::memory_order_release);
  }

  // Consumer side: pops every queued item in push order into `fn`.
  // mtds:no-alloc
  template <typename Fn>
  void drain(Fn&& fn) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    while (head != tail) {
      fn(std::move(slots_[head]));
      head = (head + 1) % slots_.size();
    }
    head_.store(head, std::memory_order_release);
    for (T& item : overflow_) fn(std::move(item));
    overflow_.clear();
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire) &&
           overflow_.empty();
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<T> overflow_;  // producer-written, barrier-ordered (see above)
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

}  // namespace mtds::util
