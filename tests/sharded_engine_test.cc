// Unit coverage for the sharded-engine building blocks: the EventQueue
// window primitives, the SPSC mailbox ring, the ShardedEngine epoch loop
// itself (window math, barrier hook ordering, thread-count independence at
// the engine level), and an exhaustive step model of the engine's window
// claim protocol.  Whole-service determinism is pinned end-to-end by
// determinism_test.cc; these tests isolate the pieces so a regression
// points at the right layer.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/sharded_engine.h"
#include "util/spsc_ring.h"

namespace mtds {
namespace {

using core::Duration;
using core::RealTime;

// --- EventQueue window primitives ------------------------------------------

TEST(EventQueueWindows, RunBeforeIsStrict) {
  sim::EventQueue q;
  std::vector<int> fired;
  q.at(RealTime{1.0}, [&] { fired.push_back(1); });
  q.at(RealTime{2.0}, [&] { fired.push_back(2); });
  q.at(RealTime{3.0}, [&] { fired.push_back(3); });

  EXPECT_EQ(q.run_before(RealTime{2.0}), 1u);  // strictly before 2.0
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), RealTime{2.0});  // now advances to the window end

  EXPECT_EQ(q.run_before(RealTime{3.5}), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueWindows, RunAtExecutesOneTimestampIncludingSelfSchedules) {
  sim::EventQueue q;
  int count = 0;
  q.at(RealTime{5.0}, [&] {
    ++count;
    // A same-time event scheduled during the lockstep round still runs.
    q.at(RealTime{5.0}, [&] { ++count; });
  });
  q.at(RealTime{5.0}, [&] { ++count; });
  q.at(RealTime{6.0}, [&] { ++count; });

  EXPECT_EQ(q.run_at(RealTime{5.0}), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(q.now(), RealTime{5.0});
  EXPECT_EQ(q.pending(), 1u);  // the 6.0 event is untouched
}

TEST(EventQueueWindows, NextTimeIsInfinityWhenEmpty) {
  sim::EventQueue q;
  EXPECT_TRUE(q.next_time() > RealTime{1e300});
  q.at(RealTime{2.5}, [] {});
  EXPECT_EQ(q.next_time(), RealTime{2.5});
}

TEST(EventQueueWindows, NextTimeSkipsCancelledTop) {
  sim::EventQueue q;
  const auto id = q.at(RealTime{1.0}, [] {});
  q.at(RealTime{2.0}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), RealTime{2.0});
}

TEST(EventQueueWindows, AdvanceToNeverMovesBackwards) {
  sim::EventQueue q;
  q.advance_to(RealTime{10.0});
  EXPECT_EQ(q.now(), RealTime{10.0});
  q.advance_to(RealTime{5.0});
  EXPECT_EQ(q.now(), RealTime{10.0});
}

// --- SpscRing ---------------------------------------------------------------

TEST(SpscRing, DrainsInPushOrder) {
  util::SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ring.push(i);
  std::vector<int> got;
  ring.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, OverflowPreservesOrderAcrossTheSeam) {
  util::SpscRing<int> ring(4);  // 3 usable slots (one sentinel)
  for (int i = 0; i < 10; ++i) ring.push(i);
  std::vector<int> got;
  ring.drain([&](int&& v) { got.push_back(v); });
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_TRUE(ring.empty());

  // After a drain the ring is usable again, still in order.
  for (int i = 100; i < 103; ++i) ring.push(i);
  got.clear();
  ring.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{100, 101, 102}));
}

TEST(SpscRing, MoveOnlyPayloads) {
  util::SpscRing<std::unique_ptr<int>> ring(2);
  ring.push(std::make_unique<int>(1));
  ring.push(std::make_unique<int>(2));  // spills (capacity 2 -> 1 usable)
  int sum = 0;
  ring.drain([&](std::unique_ptr<int>&& p) { sum += *p; });
  EXPECT_EQ(sum, 3);
}

// --- ShardedEngine ----------------------------------------------------------

// Two shards exchanging "messages" through the barrier hook: each event at
// time t on shard s schedules the next on the other shard at t + delay,
// mimicking the Network mailbox protocol.
TEST(ShardedEngine, CrossShardPingPongMatchesEveryThreadCount) {
  const Duration kDelay{0.25};
  for (unsigned threads : {1u, 2u, 4u}) {
    sim::EventQueue q0, q1;
    std::vector<std::pair<int, double>> log;  // (shard, time)
    struct Mail {
      int to;
      RealTime at;
    };
    std::vector<Mail> mailbox;

    std::function<void(int)> bounce = [&](int shard) {
      sim::EventQueue& q = shard == 0 ? q0 : q1;
      log.emplace_back(shard, q.now().seconds());
      if (log.size() < 8) {
        mailbox.push_back(Mail{1 - shard, q.now() + kDelay});
      }
    };

    q0.at(RealTime{0.0}, [&] { bounce(0); });
    sim::ShardedEngine engine({&q0, &q1}, threads);
    engine.set_barrier_hook([&] {
      for (const Mail& m : mailbox) {
        sim::EventQueue& q = m.to == 0 ? q0 : q1;
        const int to = m.to;
        q.at(m.at, [&, to] { bounce(to); });
      }
      mailbox.clear();
    });
    engine.run_until(RealTime{10.0}, kDelay);

    ASSERT_EQ(log.size(), 8u) << "threads=" << threads;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].first, static_cast<int>(i % 2));
      EXPECT_NEAR(log[i].second, 0.25 * static_cast<double>(i), 1e-12);
    }
    EXPECT_EQ(engine.now(), RealTime{10.0});
    EXPECT_EQ(q0.now(), RealTime{10.0});
    EXPECT_EQ(q1.now(), RealTime{10.0});
  }
}

TEST(ShardedEngine, ZeroLookaheadRunsLockstepRounds) {
  sim::EventQueue q0, q1;
  std::vector<int> order;
  q0.at(RealTime{1.0}, [&] { order.push_back(0); });
  q1.at(RealTime{1.0}, [&] { order.push_back(1); });
  q1.at(RealTime{2.0}, [&] { order.push_back(2); });

  sim::ShardedEngine engine({&q0, &q1}, 1);
  engine.run_until(RealTime{3.0}, Duration{0.0});
  // Both t=1.0 events ran in the first lockstep round, t=2.0 in a later one.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 2);
  EXPECT_GE(engine.last_windows(), 2u);
}

TEST(ShardedEngine, PositiveLookaheadBatchesWindows) {
  sim::EventQueue q0, q1;
  std::atomic<int> fired{0};
  for (int i = 0; i < 100; ++i) {
    q0.at(RealTime{0.01 * i}, [&] { fired.fetch_add(1); });
    q1.at(RealTime{0.01 * i}, [&] { fired.fetch_add(1); });
  }
  sim::ShardedEngine engine({&q0, &q1}, 2);
  engine.run_until(RealTime{1.0}, Duration{0.1});
  EXPECT_EQ(fired.load(), 200);
  // 100 distinct timestamps, but only ~10 windows of width 0.1.
  EXPECT_LE(engine.last_windows(), 12u);
}

TEST(ShardedEngine, BarrierHookRunsAfterEveryWindow) {
  sim::EventQueue q0, q1;
  q0.at(RealTime{0.5}, [] {});
  q1.at(RealTime{1.5}, [] {});
  sim::ShardedEngine engine({&q0, &q1}, 2);
  std::size_t hooks = 0;
  engine.set_barrier_hook([&] { ++hooks; });
  engine.run_until(RealTime{2.0}, Duration{0.0});
  EXPECT_EQ(hooks, engine.last_windows());
  EXPECT_EQ(hooks, 2u);
}

// Sixteen shards with sparse, self-perpetuating traffic: most windows have
// one active shard (run inline by the coordinator), many have several
// (published to the claim word), and in every window some shards are idle
// (their clocks moved by the coordinator's scan).  Every event logs its
// window and time into its shard's log and draws from its shard's own
// generator, so the logs are a function of the schedule alone and must not
// depend on the thread count.
struct SparseRun {
  std::vector<std::vector<std::pair<std::size_t, double>>> logs;
  std::size_t windows = 0;
  std::size_t single = 0;    // windows with exactly one active shard
  std::size_t multi = 0;     // windows with two or more
  std::size_t idle = 0;      // (window, shard) pairs with no event
};

SparseRun run_sparse(unsigned threads, Duration lookahead) {
  constexpr std::size_t kShards = 16;
  constexpr int kEventsPerShard = 60;
  struct Mail {
    std::size_t to;
    RealTime at;
  };
  struct Shard {
    sim::EventQueue q;
    std::uint64_t rng = 0;
    int fired = 0;
    std::vector<Mail> outbox;  // written only while this shard runs
    std::vector<std::pair<std::size_t, double>> log;
  };
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<sim::EventQueue*> queues;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<Shard>());
    shards[s]->rng = 0x9E3779B97F4A7C15ull * (s + 1);
    queues.push_back(&shards[s]->q);
  }
  std::size_t window = 0;  // written by the hook, read by events
  // Times sit on a binary grid, so sums are exact and shards often share
  // a timestamp (lockstep windows with several active shards).
  constexpr double kGrid = 1.0 / 256;
  constexpr double kMinDelay = 2 * kGrid;

  std::function<void(std::size_t)> fire = [&](std::size_t s) {
    Shard& sh = *shards[s];
    sh.log.emplace_back(window, sh.q.now().seconds());
    if (++sh.fired >= kEventsPerShard) return;
    sh.rng = sh.rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = sh.rng >> 33;
    if (r % 3 != 0) {
      // Local follow-up, sometimes at the same instant.
      const double gap = r % 7 == 0 ? 0.0 : kGrid * static_cast<double>(1 + r % 24);
      sh.q.after(Duration{gap}, [&fire, s] { fire(s); });
    }
    if (r % 2 == 0) {
      // Cross-shard message, no earlier than the minimum delay.
      const std::size_t to = (s + 1 + r % (kShards - 1)) % kShards;
      const double delay = kMinDelay + kGrid * static_cast<double>(r % 8);
      sh.outbox.push_back(Mail{to, sh.q.now() + Duration{delay}});
    }
  };
  for (std::size_t s = 0; s < kShards; s += 3) {
    shards[s]->q.at(RealTime{kGrid * static_cast<double>(s)},
                    [&fire, s] { fire(s); });
  }

  sim::ShardedEngine engine(queues, threads);
  EXPECT_EQ(engine.num_threads(), threads);
  SparseRun out;
  RealTime target{0.0};
  RealTime t_min{0.0};
  std::vector<std::size_t> seen(kShards, 0);
  const auto scan = [&] {
    t_min = RealTime{std::numeric_limits<double>::infinity()};
    for (auto* q : queues) t_min = std::min(t_min, q->next_time());
  };
  engine.set_barrier_hook([&] {
    // Every shard clock - active or idle - ends the window at the window
    // end run_before/run_until/run_at would have set.
    RealTime end = t_min;
    if (lookahead > Duration{0.0}) {
      end = t_min + lookahead <= target ? t_min + lookahead : target;
    }
    std::size_t active = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(shards[s]->q.now(), end) << "shard " << s << " window "
                                         << window;
      if (shards[s]->log.size() != seen[s]) {
        ++active;
        seen[s] = shards[s]->log.size();
      }
    }
    EXPECT_GE(active, 1u);
    ++(active == 1 ? out.single : out.multi);
    out.idle += kShards - active;
    // Canonical mailbox flush: sender-major, push order.
    for (auto& sh : shards) {
      for (const Mail& m : sh->outbox) {
        const std::size_t to = m.to;
        shards[to]->q.at(m.at, [&fire, to] { fire(to); });
      }
      sh->outbox.clear();
    }
    ++window;
    scan();
  });
  for (double t : {0.5, 0.75, 1.6, 4.0, 30.0}) {
    target = RealTime{t};
    scan();
    const std::size_t w0 = window;
    engine.run_until(target, lookahead);
    out.windows += engine.last_windows();
    EXPECT_EQ(window - w0, engine.last_windows()) << "hooks == windows";
    for (auto* q : queues) EXPECT_EQ(q->now(), target);
  }
  for (auto& sh : shards) out.logs.push_back(sh->log);
  return out;
}

TEST(ShardedEngine, SparseSixteenShardsMatchEveryThreadCount) {
  for (Duration lookahead : {Duration{2.0 / 256}, Duration{0.0}}) {
    const SparseRun base = run_sparse(1, lookahead);
    std::size_t events = 0;
    for (const auto& log : base.logs) events += log.size();
    EXPECT_GT(events, 400u);
    // The run exercises every dispatch path.
    EXPECT_GT(base.single, 20u) << "inline windows";
    EXPECT_GT(base.multi, 20u) << "published windows";
    EXPECT_GT(base.idle, base.windows) << "idle shards";
    for (unsigned threads : {2u, 4u, 8u}) {
      const SparseRun run = run_sparse(threads, lookahead);
      EXPECT_EQ(run.windows, base.windows) << "threads=" << threads;
      EXPECT_EQ(run.single, base.single) << "threads=" << threads;
      for (std::size_t s = 0; s < base.logs.size(); ++s) {
        EXPECT_EQ(run.logs[s], base.logs[s])
            << "shard " << s << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Step model of the window claim protocol (sharded_engine.{h,cc}), in the
// style of the seqlock model in seqlock_test.cc.  Each step performs one
// shared access (plain or atomic; the coordinator's plain writes of the
// window parameters count too), and explore() visits every sequentially
// consistent interleaving of one coordinator publishing a script of windows
// against two workers.  Worker 2 may moreover stall for good at any step
// where it holds no claim - a parked worker that never wakes - and the
// coordinator must finish without it.  States are memoised: each reachable
// state is expanded once, and the execution count still counts every
// interleaving.
//
// The code paths modelled, and their steps:
//   coordinator, per window: write params (mode_/end_), write each active_
//     entry, reset done_, store the claim word, drain(), wait for done_;
//     after the last window, store the stop word;
//   drain(w): CAS w -> w+1 while the word names generation g and has an
//     unclaimed index; after the first successful claim read the params;
//     read active_[index] and run that shard; increment done_;
//   worker_loop: load the word; drain it when claimable, else wait for it
//     to change (spinning and parking are the same step here).
//
// Layouts: kFull is the shipped ClaimWord.  kNoGeneration zeroes the
// generation field, so drain() cannot tell that a reloaded word names a
// later window.  kNoCount keeps the count in a separate variable that a
// thread reads before each claim.

enum class Layout { kFull, kNoGeneration, kNoCount };

constexpr int kModelShards = 4;
constexpr int kModelMaxWindows = 3;
constexpr int kModelMaxActive = 3;

struct ModelWindow {
  std::uint8_t count;
  std::uint8_t shard[kModelMaxActive];
};

struct ModelScript {
  int windows;
  ModelWindow w[kModelMaxWindows];
};

enum Pc : std::uint8_t {
  // coordinator, publishing
  kWriteParams, kWriteActive, kWriteCount, kResetDone, kPublish,
  // drain(), any thread
  kDrainCheck, kCas, kReadParams, kRun, kDone,
  // coordinator, after its drain
  kWait, kStopStore,
  // worker_loop
  kLoad, kTopCheck, kAwait,
  kExit,
};

struct ModelThread {
  std::uint8_t pc = kLoad;
  std::uint8_t window = 0;   // coordinator: window being published
  std::uint8_t entry = 0;    // coordinator: active_ entry being written
  std::uint8_t gen = 0;      // drain(): generation it is draining
  std::uint8_t params = 0;   // drain(): params read, 0 = not yet
  std::uint8_t count = 0;    // kNoCount: count read by the last check
  std::uint8_t index = 0;    // claimed index
  std::uint8_t holding = 0;  // ghost: between a successful CAS and done_
  std::int8_t claim = -1;    // ghost: window whose word the CAS hit
  std::uint8_t stalled = 0;
  std::uint64_t w = 0;       // local copy of the claim word
};

struct ModelWorld {
  std::uint64_t word = 0;
  std::uint8_t count = 0;    // kNoCount's separate count
  std::uint8_t params = 0;   // window index + 1
  std::uint8_t active[kModelMaxActive] = {};
  std::uint8_t done = 0;
  std::int8_t published = -1;  // ghost: last window whose word was stored
  std::uint8_t runs[kModelMaxWindows][kModelShards] = {};  // ghost
  ModelThread t[3];  // 0 = coordinator, 1 and 2 = workers

  // The memo key: one byte per field, claim words squeezed into a byte
  // (every field of a model word is below 4).
  using Key = std::array<std::uint8_t, 53>;
  static std::uint8_t squeeze(std::uint64_t w) {
    return static_cast<std::uint8_t>(
        ((w & sim::ClaimWord::kStop) != 0 ? 0x80 : 0) |
        sim::ClaimWord::gen(w) << 4 | sim::ClaimWord::count(w) << 2 |
        sim::ClaimWord::next(w));
  }
  Key key() const {
    Key k{};
    std::size_t n = 0;
    const auto put = [&k, &n](int v) { k[n++] = static_cast<std::uint8_t>(v); };
    put(squeeze(word));
    put(count);
    put(params);
    for (auto a : active) put(a);
    put(done);
    put(published);
    for (auto& row : runs) {
      for (auto r : row) put(r);
    }
    for (const ModelThread& th : t) {
      put(th.pc);
      put(th.window);
      put(th.entry);
      put(th.gen);
      put(th.params);
      put(th.count);
      put(th.index);
      put(th.holding);
      put(th.claim);
      put(th.stalled);
      put(squeeze(th.w));
    }
    return k;
  }
};

struct KeyHash {
  std::size_t operator()(const ModelWorld::Key& k) const noexcept {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (std::uint8_t b : k) h = (h ^ b) * 1099511628211ull;
    return static_cast<std::size_t>(h);
  }
};

struct ClaimOutcome {
  double executions = 0;          // complete interleavings
  std::uint64_t states = 0;
  std::uint64_t twice = 0;        // a shard ran twice in one window
  std::uint64_t not_active = 0;   // a claim ran a shard outside its window
  std::uint64_t missing = 0;      // a complete run skipped an active shard
  std::uint64_t wrong_params = 0; // a shard ran with another window's params
  std::uint64_t early = 0;        // next window began over a held claim
  std::uint64_t hang = 0;         // no thread can move, run not complete
  std::uint64_t violations() const {
    return twice + not_active + missing + wrong_params + early + hang;
  }
};

class ClaimModel {
 public:
  // With `first_only` the search stops at the first violation.
  ClaimModel(Layout layout, const ModelScript& script, bool first_only)
      : layout_(layout), script_(script), first_only_(first_only) {}

  ClaimOutcome run() {
    ModelWorld s;
    s.t[0].pc = kWriteParams;
    out_.executions = explore(s);
    out_.states = memo_.size();
    return out_;
  }

 private:
  std::uint64_t make_word(int window, int count, int next) const {
    const auto gen = static_cast<std::uint32_t>(
        layout_ == Layout::kNoGeneration ? 0 : window + 1);
    const auto cnt =
        static_cast<std::uint32_t>(layout_ == Layout::kNoCount ? 0 : count);
    return sim::ClaimWord::make(gen, cnt, static_cast<std::uint32_t>(next));
  }
  // The count a thread compares the word's next index with.
  std::uint32_t count_of(const ModelThread& th) const {
    return layout_ == Layout::kNoCount ? th.count
                                       : sim::ClaimWord::count(th.w);
  }
  bool claims_held(const ModelWorld& s) const {
    for (const ModelThread& th : s.t) {
      if (th.holding) return true;
    }
    return false;
  }

  // drain()'s loop condition, then the CAS or the exit.
  void drain_check(ModelThread& th, int tid) const {
    if (sim::ClaimWord::gen(th.w) == th.gen &&
        sim::ClaimWord::next(th.w) < count_of(th)) {
      th.pc = kCas;
    } else {
      th.pc = tid == 0 ? kWait : kLoad;
    }
  }
  // worker_loop's dispatch on a freshly loaded word.
  void top_check(ModelThread& th) const {
    if ((th.w & sim::ClaimWord::kStop) != 0) {
      th.pc = kExit;
    } else if (sim::ClaimWord::next(th.w) < count_of(th)) {
      th.gen = static_cast<std::uint8_t>(sim::ClaimWord::gen(th.w));
      th.params = 0;
      th.pc = kDrainCheck;
    } else {
      th.pc = kAwait;
    }
  }
  // Local control flow up to the next shared access.  Under kNoCount the
  // two checks read the shared count, so they are steps of their own.
  void settle(ModelThread& th, int tid) const {
    for (;;) {
      if (layout_ == Layout::kNoCount) return;
      if (th.pc == kDrainCheck) {
        drain_check(th, tid);
      } else if (th.pc == kTopCheck) {
        top_check(th);
      } else {
        return;
      }
    }
  }

  // Performs thread tid's next step; returns false if it cannot move.
  // A violation sets `bad` and ends the branch.
  bool step(ModelWorld& s, int tid, bool& bad) {
    ModelThread& th = s.t[tid];
    const ModelWindow* win = &script_.w[th.window];
    switch (th.pc) {
      case kWriteParams:
        if (claims_held(s)) {
          ++out_.early;
          bad = true;
        }
        s.params = static_cast<std::uint8_t>(th.window + 1);
        th.entry = 0;
        th.pc = kWriteActive;
        break;
      case kWriteActive:
        if (claims_held(s)) {
          ++out_.early;
          bad = true;
        }
        s.active[th.entry] = win->shard[th.entry];
        if (++th.entry == win->count) {
          th.pc = layout_ == Layout::kNoCount ? kWriteCount : kResetDone;
        }
        break;
      case kWriteCount:
        s.count = win->count;
        th.pc = kResetDone;
        break;
      case kResetDone:
        s.done = 0;
        th.pc = kPublish;
        break;
      case kPublish:
        s.word = make_word(th.window, win->count, 0);
        s.published = static_cast<std::int8_t>(th.window);
        th.w = s.word;
        th.gen = static_cast<std::uint8_t>(sim::ClaimWord::gen(th.w));
        th.params = 0;
        th.count = win->count;  // the coordinator knows its own count
        th.pc = kDrainCheck;
        if (layout_ != Layout::kNoCount) settle(th, tid);
        break;
      case kDrainCheck:  // kNoCount only: re-read the count
        th.count = s.count;
        drain_check(th, tid);
        break;
      case kCas:
        if (s.word == th.w) {
          s.word = th.w + 1;
          th.index = static_cast<std::uint8_t>(sim::ClaimWord::next(th.w));
          th.holding = 1;
          th.claim = s.published;
          ++th.w;
          th.pc = th.params != 0 ? kRun : kReadParams;
        } else {
          th.w = s.word;
          th.pc = kDrainCheck;
          settle(th, tid);
        }
        break;
      case kReadParams:
        th.params = s.params;
        th.pc = kRun;
        break;
      case kRun: {
        // A claim on the word of no window (before the first publish) is
        // outside every window.
        const int cw = th.claim;
        const std::uint8_t shard = s.active[th.index];
        if (th.params != cw + 1) {
          ++out_.wrong_params;
          bad = true;
        }
        if (cw < 0 || th.index >= script_.w[cw].count ||
            script_.w[cw].shard[th.index] != shard) {
          ++out_.not_active;
          bad = true;
        } else if (++s.runs[cw][shard] > 1) {
          ++out_.twice;
          bad = true;
        }
        th.pc = kDone;
        break;
      }
      case kDone:
        ++s.done;
        th.holding = 0;
        th.claim = -1;
        th.pc = kDrainCheck;
        settle(th, tid);
        break;
      case kWait:
        if (s.done != win->count) return false;
        if (th.window + 1 < script_.windows) {
          ++th.window;
          th.pc = kWriteParams;
        } else {
          th.pc = kStopStore;
        }
        break;
      case kStopStore:
        if (claims_held(s)) {
          ++out_.early;
          bad = true;
        }
        s.word = sim::ClaimWord::kStop;
        th.pc = kExit;
        break;
      case kLoad:
        th.w = s.word;
        th.pc = kTopCheck;
        settle(th, tid);
        break;
      case kTopCheck:  // kNoCount only: read the count, then dispatch
        th.count = s.count;
        top_check(th);
        break;
      case kAwait:
        if (s.word == th.w) return false;
        th.w = s.word;
        th.pc = kTopCheck;
        settle(th, tid);
        break;
      case kExit:
        return false;
    }
    return true;
  }

  void check_complete(const ModelWorld& s) {
    for (int k = 0; k < script_.windows; ++k) {
      int ran = 0;
      for (auto r : s.runs[k]) ran += r;
      bool all = ran == script_.w[k].count;
      for (int i = 0; i < script_.w[k].count; ++i) {
        all = all && s.runs[k][script_.w[k].shard[i]] == 1;
      }
      if (!all) {
        ++out_.missing;
        return;
      }
    }
  }

  double explore(const ModelWorld& s) {
    if (first_only_ && out_.violations() > 0) return 0;
    const ModelWorld::Key key = s.key();
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    double paths = 0;
    bool moved = false;
    for (int tid = 2; tid >= 0; --tid) {
      if (s.t[tid].stalled) continue;
      ModelWorld next = s;
      bool bad = false;
      if (!step(next, tid, bad)) continue;
      moved = true;
      if (!bad) paths += explore(next);
    }
    // Worker 2 may stop for good wherever it holds no claim.
    const ModelThread& w2 = s.t[2];
    if (!w2.stalled && !w2.holding && w2.pc != kExit) {
      ModelWorld next = s;
      next.t[2].stalled = 1;
      moved = true;
      paths += explore(next);
    }
    if (!moved) {
      bool finished = s.t[0].pc == kExit;
      for (int tid = 1; tid < 3; ++tid) {
        finished = finished && (s.t[tid].pc == kExit || s.t[tid].stalled);
      }
      if (finished) {
        check_complete(s);
        paths = 1;
      } else {
        ++out_.hang;
      }
    }
    memo_.emplace(key, paths);
    return paths;
  }

  Layout layout_;
  ModelScript script_;
  bool first_only_;
  ClaimOutcome out_;
  std::unordered_map<ModelWorld::Key, double, KeyHash> memo_;
};

ClaimOutcome check_layout(Layout layout, const ModelScript& script,
                          bool first_only = false) {
  ClaimModel model(layout, script, first_only);
  return model.run();
}

// Windows whose counts and active lists differ, so a claim carried from one
// window into the next lands on the wrong shard or the wrong parameters.
const ModelScript kShrinking{2, {{3, {0, 1, 2}}, {2, {3, 1, 0}}}};
const ModelScript kGrowing{2, {{2, {0, 1, 0}}, {3, {2, 3, 0}}}};
const ModelScript kThreeWindows{
    3, {{2, {0, 1, 0}}, {3, {2, 3, 0}}, {2, {1, 2, 0}}}};

// The shipped word: in every interleaving each active shard of each window
// runs exactly once, with that window's parameters, and the coordinator
// publishes the next window (or stops) only once no claim is held.  About
// 310k states; every execution completes, including those where worker 2
// stalls for good.
TEST(ShardedEngineModel, ClaimsEachShardOnceUnderTheShippedWord) {
  for (const ModelScript& script : {kShrinking, kGrowing, kThreeWindows}) {
    const ClaimOutcome out = check_layout(Layout::kFull, script);
    EXPECT_GT(out.executions, 0.0);
    EXPECT_EQ(out.twice, 0u);
    EXPECT_EQ(out.not_active, 0u);
    EXPECT_EQ(out.missing, 0u);
    EXPECT_EQ(out.wrong_params, 0u);
    EXPECT_EQ(out.early, 0u);
    EXPECT_EQ(out.hang, 0u);
  }
}

// Without the generation, a drain() whose CAS fails reloads the next
// window's word, takes it for its own, and runs the claimed shard with the
// parameters it read for the previous window.
TEST(ShardedEngineModel, FlagsAWordWithoutTheGeneration) {
  const ClaimOutcome out = check_layout(Layout::kNoGeneration, kGrowing);
  EXPECT_GT(out.executions, 0.0);
  EXPECT_GT(out.wrong_params, 0u);
}

// With the count outside the word, a thread pairs one window's count with
// another window's index: it reads the count the coordinator has just
// written for the next window while it still holds the old word, and
// claims an index that word does not have - a shard outside the window,
// or one another thread also runs.  The full search (about 1M states)
// finds every kind of violation; stopping at the first keeps it small.
TEST(ShardedEngineModel, FlagsAWordWithoutTheCount) {
  const ClaimOutcome out = check_layout(Layout::kNoCount, kGrowing, true);
  EXPECT_GT(out.violations(), 0u);
}

}  // namespace
}  // namespace mtds
