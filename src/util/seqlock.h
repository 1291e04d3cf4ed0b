// Sequence-counted double-buffer for single-writer snapshot publication.
//
// The serving plane's contract: the sync plane (one writer, inside the
// runtime's serialization domain) publishes an immutable clock snapshot
// after every round/reset; N reader threads answer client queries from the
// latest snapshot with zero locks and zero allocations.  A mutex here would
// put the writer's (rare) publication on every reader's (hot) path; the
// seqlock inverts that: readers pay two acquire loads and a small copy,
// and retry only when the writer reaches their slot.
//
// The writer alternates slots and stamps each slot's seq with the version
// it holds: 2v-1 while filling publication v, 2v once v is complete.  A
// reader loads version_ = V, copies slot V&1, and keeps the copy only if
// the slot read exactly 2V before and after it.  So it retries when the
// writer is mid-write in that slot, and also when the slot already holds
// a newer version V+2 that version_ does not show yet - returning V+2 there
// would let the reader's next read() load version_ = V+1 and go backward.
// With the stamp check, a read returns V only after loading version_ == V,
// and one thread's loads of version_ never go backward (read-read
// coherence), so each reader thread sees versions in non-decreasing order.
// tests/seqlock_test.cc enumerates every interleaving of a small
// step model of publish/read to check this on one core.
//
// The payload is stored as relaxed std::atomic words, not raw bytes: a
// torn word is impossible at the hardware level, the acquire/release
// fences order the words against the slot's sequence counter, and - unlike
// the traditional memcpy seqlock, whose racing payload reads are "benign"
// only by folklore - ThreadSanitizer sees no data race (the seqlock_test
// stress runs under the TSan CI job).
#pragma once

// mtds:lock-free(single-writer seqlock: per-slot seq stamped 2v-1 while publication v is mid-write and 2v once complete; readers copy relaxed atomic words bracketed by acquire loads of seq and retry unless seq reads 2V both times for the version_ V they loaded, i.e. also when the slot already holds a newer version than V; version_ release-stores select the freshest complete slot, so each reader thread sees versions in non-decreasing order)
#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace mtds::util {

template <typename T>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>,
                "Seqlock payloads are copied word-by-word");

 public:
  Seqlock() = default;

  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  // Writer side - at most one thread at a time (the engine's runtime
  // serialization domain provides this; see ProtocolEngine).  Never blocks
  // readers: they either finish their copy of the other slot or retry.
  // mtds:no-alloc
  void publish(const T& value) noexcept {
    WordArray words;
    // void* casts: T is statically trivially copyable (see static_assert);
    // gcc's -Wclass-memaccess would otherwise flag the NSDMI default ctor.
    std::memcpy(words.data(), static_cast<const void*>(&value), sizeof(T));
    const std::uint64_t version =
        version_.load(std::memory_order_relaxed) + 1;
    Slot& slot = slots_[version & 1];
    slot.seq.store(2 * version - 1, std::memory_order_relaxed);  // mid-write
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.seq.store(2 * version, std::memory_order_release);  // complete
    version_.store(version, std::memory_order_release);
  }

  // Reader side - any number of threads, lock-free, allocation-free.
  // Returns false until the first publish (out is untouched then).
  // mtds:no-alloc
  bool read(T& out) const noexcept {
    WordArray words;
    for (;;) {
      const std::uint64_t version = version_.load(std::memory_order_acquire);
      if (version == 0) return false;
      const Slot& slot = slots_[version & 1];
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (!slot_holds(seq1, version)) continue;  // mid-write or lapped
      for (std::size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == seq1) break;
    }
    std::memcpy(static_cast<void*>(&out), words.data(), sizeof(T));
    return true;
  }

  // The reader's acceptance rule: a slot whose seq reads `seq` holds
  // publication `version`, complete.  Shared with the interleaving model
  // in tests/seqlock_test.cc so the model checks the rule read() uses.
  static constexpr bool slot_holds(std::uint64_t seq,
                                   std::uint64_t version) noexcept {
    return seq == 2 * version;
  }

  // Number of publications so far (0 = nothing published yet).  Readers can
  // poll this to detect fresh snapshots without copying one out.
  // mtds:no-alloc
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  using WordArray = std::array<std::uint64_t, kWords>;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  // Separate cache lines: readers hammer version_ while the writer fills a
  // slot; sharing a line would put the writer's stores on every reader's
  // coherence path.
  alignas(64) Slot slots_[2];
  alignas(64) std::atomic<std::uint64_t> version_{0};
};

}  // namespace mtds::util
