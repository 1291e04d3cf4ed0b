// ShardedEngine: conservative-lookahead parallel discrete-event execution.
//
// The server population is split across S shards, each owning its own
// SlabHeap-backed EventQueue, RNG stream and trace buffer (the owners live
// in the service layer; the engine only sees the queues).  T threads - the
// coordinating thread that calls run_until plus T-1 spawned workers -
// execute the shards in epoch windows:
//
//   Tmin = min over shards of next_time()
//   if lookahead L > 0:  every shard runs its events in [Tmin, Tmin + L)
//   if L == 0:           every shard runs exactly the events at time Tmin
//
// with a barrier between windows at which the coordinating thread drains
// the cross-shard mailboxes (the barrier hook) and recomputes Tmin.  The
// scheme is conservative in the classical PDES sense: L is the minimum
// one-way link delay, so an event executing at u >= Tmin can only produce a
// cross-shard arrival at u + delay >= Tmin + L - beyond the window - and
// events inside one window on different shards can never interact.  With
// L == 0 (the paper's default "minimum delay zero" networks) the engine
// degenerates to deterministic lockstep over distinct timestamps, which is
// correct but only parallel across shards sharing a timestamp.
//
// Window dispatch.  The scan that finds Tmin also lists the window's
// *active* shards, those with an event inside it.  The coordinator advances
// every idle shard's clock itself (exactly as run_before/run_at would) and
// runs a window with one active shard inline, waking no one.  A window with
// more is published as one claim word (ClaimWord below): the coordinator
// writes the window's mode, end and active list, then stores the word;
// every thread, the coordinator included, claims active shards by CAS on
// that word and reads the window's parameters only after a successful
// claim.  The coordinator then waits only for the shards that were claimed,
// so a worker that is still asleep is never on the critical path.  Idle
// workers spin a bounded number of times on the word and then park on it
// (std::atomic::wait).  The protocol is checked exhaustively by a step
// model in tests/sharded_engine_test.cc.
//
// Determinism invariants (pinned by determinism_test's sharded goldens):
//   * the shard count S - not the thread count T - partitions all state:
//     shard assignment, RNG streams, mailbox indices and trace buffers are
//     all functions of S alone;
//   * a shard's window execution is single-threaded and FIFO-ordered, so it
//     is identical whichever thread runs it;
//   * mailboxes are drained only at barriers, by the coordinating thread,
//     in canonical (receiver, sender) order, each preserving push order.
// Hence the observable run is a pure function of (scenario, S): T in
// {1, 2, 4, ...} only changes which OS thread executes a shard's window.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/time_types.h"
#include "sim/event_queue.h"

namespace mtds::sim {

using core::Duration;
using core::RealTime;

// The claim word of a published window: bits 0-15 hold the next unclaimed
// index into the window's active list, bits 16-31 the active count, bits
// 32-62 the window generation, and bit 63 is the stop flag.  Claiming
// index `next` is a CAS of w -> w + 1 while next < count.  The count must
// travel in the word: a count read apart from the index can belong to
// another window.  The generation tells a thread that a word it reloads
// still names the window whose parameters it holds.
struct ClaimWord {
  static constexpr std::uint64_t kStop = std::uint64_t{1} << 63;
  static constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;
  static constexpr std::uint32_t kMaxCount = 0xFFFFu;

  static constexpr std::uint64_t make(std::uint32_t gen, std::uint32_t count,
                                      std::uint32_t next) noexcept {
    return (static_cast<std::uint64_t>(gen & kGenMask) << 32) |
           (static_cast<std::uint64_t>(count & kMaxCount) << 16) |
           (next & kMaxCount);
  }
  static constexpr std::uint32_t gen(std::uint64_t w) noexcept {
    return static_cast<std::uint32_t>(w >> 32) & kGenMask;
  }
  static constexpr std::uint32_t count(std::uint64_t w) noexcept {
    return static_cast<std::uint32_t>(w >> 16) & kMaxCount;
  }
  static constexpr std::uint32_t next(std::uint64_t w) noexcept {
    return static_cast<std::uint32_t>(w) & kMaxCount;
  }
  static constexpr bool claimable(std::uint64_t w) noexcept {
    return next(w) < count(w);
  }
};

class ShardedEngine {
 public:
  // Borrows the shard queues (the service owns them; they must outlive the
  // engine).  The calling thread is one of the max(1, num_threads) threads,
  // so num_threads - 1 workers are spawned.  Which thread runs a shard is
  // irrelevant to the result (see determinism invariants above).  At most
  // ClaimWord::kMaxCount shards.
  ShardedEngine(std::vector<EventQueue*> queues, unsigned num_threads);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Invoked by the coordinating thread at every epoch barrier, after every
  // shard has finished the window: drain cross-shard mailboxes into the
  // shard queues.  Must be set before run_until when mailboxes are in use.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  // Runs every shard's events with time <= t_target under the epoch scheme,
  // then aligns every shard clock (and now()) to t_target.  `lookahead` is
  // the window width L; it must not exceed the minimum one-way delay of any
  // cross-shard link.  Monotone like EventQueue::run_until.
  void run_until(RealTime t_target, Duration lookahead);

  RealTime now() const noexcept { return now_; }
  std::size_t num_shards() const noexcept { return queues_.size(); }
  unsigned num_threads() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }
  // Epoch windows executed by the last run_until (scheduling diagnostics).
  std::size_t last_windows() const noexcept { return last_windows_; }

 private:
  // How a window runs a shard: run_before(end), run_until(end) for the
  // final stretch, or run_at(end) for a zero-lookahead lockstep round.
  enum class Mode : std::uint8_t { kBefore, kThrough, kAt };

  void run_shard(std::uint32_t shard, Mode mode, RealTime end);
  // Runs the first `active` entries of active_ and returns once all ran.
  void run_window(Mode mode, RealTime end, std::uint32_t active);
  // Claims and runs shards of the window `w` names until none is left
  // or the word moves on to another window.
  void drain(std::uint64_t w);
  // Spins, then parks, until claim_ holds a value other than `seen`.
  std::uint64_t await_change(std::uint64_t seen);
  void worker_loop();

  std::vector<EventQueue*> queues_;
  std::vector<RealTime> next_;          // per shard: next_time() this scan
  std::vector<std::uint32_t> active_;   // shards with work in this window
  std::function<void()> barrier_hook_;
  RealTime now_ = 0.0;
  std::size_t last_windows_ = 0;
  std::uint32_t gen_ = 0;  // generation of the last published window

  // The published window's parameters: written by the coordinator before
  // it stores claim_, read by a thread only after a successful claim.
  Mode mode_ = Mode::kBefore;
  RealTime end_ = 0.0;

  // mtds:lock-free(claim word: coordinator writes mode_/end_/active_, then stores a new word seq_cst; claimants CAS next+1 with acquire and read them only after success)
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  // mtds:lock-free(parked count: a worker increments it before its seq_cst re-check of claim_, the coordinator reads it after its seq_cst store and notifies only when nonzero)
  std::atomic<std::uint32_t> parked_{0};
  // mtds:lock-free(finished claims of the current window: reset before the word is published, release-incremented after each claimed shard, acquire-polled by the coordinator)
  alignas(64) std::atomic<std::uint32_t> done_{0};

  std::vector<std::thread> workers_;
};

}  // namespace mtds::sim
