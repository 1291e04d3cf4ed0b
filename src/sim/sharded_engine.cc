#include "sim/sharded_engine.h"

#include <limits>
#include <stdexcept>

namespace mtds::sim {

namespace {

// Polls of a shared word before a worker parks, or before the coordinator
// starts yielding while it waits for claimed shards: about 70 us on a
// recent Xeon, where one pause takes about 18 ns.  A window and the gap to
// the next one cost a few microseconds, so a worker between windows keeps
// spinning; a worker idle for longer (between run_until calls, or on an
// oversubscribed machine) parks.
constexpr unsigned kSpins = 1u << 12;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<EventQueue*> queues,
                             unsigned num_threads)
    : queues_(std::move(queues)),
      next_(queues_.size()),
      active_(queues_.size()) {
  if (queues_.empty()) {
    throw std::invalid_argument("ShardedEngine: no shard queues");
  }
  if (queues_.size() > ClaimWord::kMaxCount) {
    throw std::invalid_argument("ShardedEngine: too many shards");
  }
  const unsigned t = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(t - 1);
  for (unsigned w = 1; w < t; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardedEngine::~ShardedEngine() {
  claim_.store(ClaimWord::kStop, std::memory_order_seq_cst);
  claim_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardedEngine::worker_loop() {
  std::uint64_t w = claim_.load(std::memory_order_acquire);
  for (;;) {
    if ((w & ClaimWord::kStop) != 0) return;
    if (ClaimWord::claimable(w)) {
      drain(w);
      w = claim_.load(std::memory_order_acquire);
    } else {
      w = await_change(w);
    }
  }
}

std::uint64_t ShardedEngine::await_change(std::uint64_t seen) {
  for (unsigned i = 0; i < kSpins; ++i) {
    cpu_relax();
    const std::uint64_t w = claim_.load(std::memory_order_acquire);
    if (w != seen) return w;
  }
  // Dekker pair with run_window: either the coordinator's load of parked_
  // sees this increment and notifies, or this wait's seq_cst load of
  // claim_ already sees the new word and returns at once.
  parked_.fetch_add(1, std::memory_order_seq_cst);
  claim_.wait(seen, std::memory_order_seq_cst);
  parked_.fetch_sub(1, std::memory_order_relaxed);
  return claim_.load(std::memory_order_acquire);
}

// mtds:no-alloc
void ShardedEngine::drain(std::uint64_t w) {
  const std::uint32_t gen = ClaimWord::gen(w);
  Mode mode = Mode::kBefore;
  RealTime end{0.0};
  bool have_params = false;
  while (ClaimWord::gen(w) == gen && ClaimWord::claimable(w)) {
    // A failed CAS reloads w; the loop condition re-checks it.
    if (!claim_.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                      std::memory_order_acquire)) {
      continue;
    }
    if (!have_params) {
      mode = mode_;
      end = end_;
      have_params = true;
    }
    run_shard(active_[ClaimWord::next(w)], mode, end);
    done_.fetch_add(1, std::memory_order_release);
    ++w;  // the value this claim stored; a later claim's CAS refreshes it
  }
}

// mtds:no-alloc
void ShardedEngine::run_shard(std::uint32_t shard, Mode mode, RealTime end) {
  switch (mode) {
    case Mode::kBefore:
      queues_[shard]->run_before(end);
      break;
    case Mode::kThrough:
      queues_[shard]->run_until(end);
      break;
    case Mode::kAt:
      queues_[shard]->run_at(end);
      break;
  }
}

// mtds:no-alloc
void ShardedEngine::run_window(Mode mode, RealTime end, std::uint32_t active) {
  if (active == 1 || workers_.empty()) {
    for (std::uint32_t i = 0; i < active; ++i) run_shard(active_[i], mode, end);
    return;
  }
  mode_ = mode;
  end_ = end;
  done_.store(0, std::memory_order_relaxed);
  gen_ = (gen_ + 1) & ClaimWord::kGenMask;
  const std::uint64_t w = ClaimWord::make(gen_, active, 0);
  claim_.store(w, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) claim_.notify_all();
  drain(w);
  // Every shard is claimed by now; wait for the ones other threads hold.
  for (unsigned i = 0; done_.load(std::memory_order_acquire) != active; ++i) {
    if (i < kSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

// mtds:no-alloc
void ShardedEngine::run_until(RealTime t_target, Duration lookahead) {
  const Duration L = lookahead < Duration{0.0} ? Duration{0.0} : lookahead;
  const std::size_t shards = queues_.size();
  last_windows_ = 0;
  for (;;) {
    RealTime t_min{std::numeric_limits<double>::infinity()};
    for (std::size_t s = 0; s < shards; ++s) {
      next_[s] = queues_[s]->next_time();
      if (next_[s] < t_min) t_min = next_[s];
    }
    if (t_min > t_target) break;

    ++last_windows_;
    Mode mode;
    RealTime end;
    if (L > Duration{0.0} && t_min + L <= t_target) {
      // Exclusive window [t_min, t_min + L): cross-shard arrivals land at
      // >= t_min + L, past the window end, so shards are independent.
      mode = Mode::kBefore;
      end = t_min + L;
    } else if (L > Duration{0.0}) {
      // Final stretch: horizon closer than one window.  Every remaining
      // event at u <= t_target sends arrivals at >= t_min + L > t_target,
      // beyond this run entirely - drain to the horizon in one pass.
      mode = Mode::kThrough;
      end = t_target;
    } else {
      // Zero lookahead: lockstep over one timestamp.  Events at exactly
      // t_min run in parallel across shards; their cross-shard sends arrive
      // at >= t_min and are scheduled at the barrier for later rounds,
      // matching the sequential engine's behavior of processing same-time
      // arrivals after their senders.
      mode = Mode::kAt;
      end = t_min;
    }
    // A shard is active when its next event falls inside the window (every
    // next_time is >= t_min, so `<= end` means `== t_min` in kAt).  An idle
    // shard would only have its clock moved to `end`; do that here.
    std::uint32_t active = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const bool has_work =
          mode == Mode::kBefore ? next_[s] < end : next_[s] <= end;
      if (has_work) {
        active_[active++] = static_cast<std::uint32_t>(s);
      } else {
        queues_[s]->advance_to(end);
      }
    }
    run_window(mode, end, active);
    if (barrier_hook_) barrier_hook_();
  }
  // All pending events now lie beyond t_target; align every shard clock so
  // barrier-time observations and membership actions see a consistent now.
  for (EventQueue* q : queues_) q->advance_to(t_target);
  if (t_target > now_) now_ = t_target;
}

}  // namespace mtds::sim
