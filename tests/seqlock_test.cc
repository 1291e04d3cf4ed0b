// util/seqlock.h: the serving plane's single-writer snapshot cell.
//
// The torn-read stress is the point of this file: a writer republishing a
// checksummed payload flat out while reader threads spin read().  Every
// successful read must return an internally-consistent payload (checksum
// matches, all words from the same generation).  The TSan CI job runs this
// binary too - the seqlock's claim is not just "no torn reads" but "no data
// race by the memory model", which the relaxed-atomic-word payload makes
// true where a memcpy seqlock would rely on folklore.
//
// The stress needs several cores to hit its interleavings; the step model
// at the end of this file checks per-reader monotonicity on one core.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/serving_plane.h"
#include "service/snapshot.h"
#include "util/seqlock.h"

namespace mtds {
namespace {

// A payload wide enough to tear if the seqlock were broken: every field is
// derived from `gen`, so any mix of generations breaks the checksum.
struct Checked {
  std::uint64_t gen = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t sum = 0;

  static Checked make(std::uint64_t gen) {
    Checked v;
    v.gen = gen;
    v.a = gen * 0x9E3779B97F4A7C15ull;
    v.b = ~gen;
    v.c = gen ^ 0xA5A5A5A5A5A5A5A5ull;
    v.sum = v.gen + v.a + v.b + v.c;
    return v;
  }
  bool consistent() const { return sum == gen + a + b + c; }
};

TEST(Seqlock, UnpublishedReadsReturnFalse) {
  util::Seqlock<Checked> cell;
  Checked out = Checked::make(99);
  EXPECT_FALSE(cell.read(out));
  EXPECT_EQ(cell.version(), 0u);
  EXPECT_EQ(out.gen, 99u) << "a failed read must not touch the output";
}

TEST(Seqlock, ReadSeesLatestPublish) {
  util::Seqlock<Checked> cell;
  for (std::uint64_t gen = 1; gen <= 5; ++gen) {
    cell.publish(Checked::make(gen));
    Checked out;
    ASSERT_TRUE(cell.read(out));
    EXPECT_EQ(out.gen, gen);
    EXPECT_TRUE(out.consistent());
    EXPECT_EQ(cell.version(), gen);
  }
}

// The stress: one writer republishing as fast as it can, several readers
// validating every read.  Checksums catch torn payloads; monotone gen
// catches a reader handed a stale slot after seeing a newer version.
TEST(Seqlock, TornReadStress) {
  util::Seqlock<Checked> cell;
  // mtds:lock-free(test handshake: writer sets stop after its last publish)
  std::atomic<bool> stop{false};
  // mtds:lock-free(test statistic: reads observed per reader, summed after join)
  std::atomic<std::uint64_t> total_reads{0};

  constexpr int kReaders = 4;
  constexpr std::uint64_t kPublishes = 200'000;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &stop, &total_reads] {
      std::uint64_t last_gen = 0;
      std::uint64_t reads = 0;
      Checked out;
      // On a single core the writer can finish its whole storm before this
      // thread first runs; insist on one validated read so the assertions
      // below always execute (the final publish guarantees read() succeeds).
      while (!stop.load(std::memory_order_acquire) || reads == 0) {
        if (!cell.read(out)) continue;
        ASSERT_TRUE(out.consistent())
            << "torn read: gen=" << out.gen << " sum=" << out.sum;
        ASSERT_GE(out.gen, last_gen) << "snapshot went backwards";
        last_gen = out.gen;
        ++reads;
      }
      total_reads.fetch_add(reads, std::memory_order_relaxed);
    });
  }

  for (std::uint64_t gen = 1; gen <= kPublishes; ++gen) {
    cell.publish(Checked::make(gen));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(cell.version(), kPublishes);
  Checked final;
  ASSERT_TRUE(cell.read(final));
  EXPECT_EQ(final.gen, kPublishes);
  EXPECT_GT(total_reads.load(), 0u);
}

// The production payload round-trips exactly: publish a ClockSnapshot,
// read it back, extrapolate - the serving plane's actual data path.
TEST(Seqlock, ClockSnapshotRoundTrip) {
  util::Seqlock<service::ClockSnapshot> cell;
  service::ClockSnapshot snap;
  snap.base = core::ClockTime{100.0};
  snap.error = core::ErrorBound{2e-3};
  snap.published_at = core::RealTime{50.0};
  snap.rate = 1.0 + 1e-4;
  snap.delta = 1e-4;
  snap.server_id = 7;
  cell.publish(snap);

  service::ClockSnapshot out;
  ASSERT_TRUE(cell.read(out));
  EXPECT_EQ(out.base.seconds(), snap.base.seconds());
  EXPECT_EQ(out.error.seconds(), snap.error.seconds());
  EXPECT_EQ(out.published_at.seconds(), snap.published_at.seconds());
  EXPECT_EQ(out.rate, snap.rate);
  EXPECT_EQ(out.delta, snap.delta);
  EXPECT_EQ(out.server_id, 7u);

  // One second later the clock advanced by rate and the bound by delta.
  core::ClockTime c{0.0};
  core::ErrorBound e{0.0};
  service::extrapolate(out, core::RealTime{51.0}, c, e);
  EXPECT_DOUBLE_EQ(c.seconds(), 100.0 + snap.rate);
  EXPECT_DOUBLE_EQ(e.seconds(), 2e-3 + snap.rate * snap.delta);

  // Time never flows backwards out of a snapshot: a query stamped before
  // published_at (clock skew between threads) clamps the advance to zero.
  service::extrapolate(out, core::RealTime{49.0}, c, e);
  EXPECT_DOUBLE_EQ(c.seconds(), 100.0);
  EXPECT_DOUBLE_EQ(e.seconds(), 2e-3);
}

// ---------------------------------------------------------------------------
// Interleaving model of publish()/read().  Each step function performs one
// atomic access (fences are no-ops under sequential consistency), and
// explore() runs every interleaving of one writer doing kModelPublishes
// publishes against one reader doing kModelReads reads.  The payload is one
// word holding the version, which is all monotonicity needs.  A read that
// retries more than kModelRetries times ends its branch unreported: it has
// not returned, so it cannot return a stale version.

constexpr int kModelPublishes = 3;
constexpr int kModelReads = 2;
constexpr int kModelRetries = 2;

// read()'s acceptance rule for the slot of the version_ it loaded.
using SlotRule = bool (*)(std::uint64_t seq, std::uint64_t version);

// The rule before slots were stamped with their version: any complete slot.
bool parity_rule(std::uint64_t seq, std::uint64_t /*version*/) {
  return (seq & 1) == 0;
}

struct ModelState {
  // Shared: Seqlock::version_ and the two slots' seq and payload word.
  std::uint64_t version = 0;
  std::uint64_t seq[2] = {0, 0};
  std::uint64_t word[2] = {0, 0};
  // Writer locals: publications finished, step within publish(), and the
  // version being published.
  int w_done = 0;
  int w_step = 0;
  std::uint64_t w_version = 0;
  // Reader locals: reads finished, step within read(), retries spent on
  // this read, the loaded version, seq and word, and each read's result
  // (0 = read() returned false).
  int r_done = 0;
  int r_step = 0;
  int r_retries = 0;
  std::uint64_t r_version = 0;
  std::uint64_t r_seq1 = 0;
  std::uint64_t r_word = 0;
  std::uint64_t result[kModelReads] = {};
};

void writer_step(ModelState& s) {
  const std::uint64_t v = s.w_version;
  switch (s.w_step++) {
    case 0: s.w_version = s.version + 1; break;
    case 1: s.seq[v & 1] = 2 * v - 1; break;  // mid-write
    case 2: s.word[v & 1] = v; break;
    case 3: s.seq[v & 1] = 2 * v; break;  // complete
    case 4:
      s.version = v;
      s.w_step = 0;
      ++s.w_done;
      break;
  }
}

void finish_read(ModelState& s, std::uint64_t value) {
  s.result[s.r_done++] = value;
  s.r_step = 0;
  s.r_retries = 0;
}

// Returns false when the read ran out of retries.
bool reader_step(ModelState& s, SlotRule rule) {
  const std::uint64_t slot = s.r_version & 1;
  switch (s.r_step) {
    case 0:
      s.r_version = s.version;
      if (s.r_version == 0) {
        finish_read(s, 0);
      } else {
        s.r_step = 1;
      }
      return true;
    case 1:
      s.r_seq1 = s.seq[slot];
      if (rule(s.r_seq1, s.r_version)) {
        s.r_step = 2;
        return true;
      }
      break;
    case 2:
      s.r_word = s.word[slot];
      s.r_step = 3;
      return true;
    case 3:
      if (s.seq[slot] == s.r_seq1) {
        finish_read(s, s.r_word);
        return true;
      }
      break;
  }
  s.r_step = 0;
  return ++s.r_retries <= kModelRetries;
}

struct ModelOutcome {
  std::uint64_t executions = 0;   // interleavings where every read returned
  std::uint64_t regressions = 0;  // ... and a later read saw an older version
};

void explore(const ModelState& s, SlotRule rule, ModelOutcome& out) {
  const bool writer_left = s.w_done < kModelPublishes;
  const bool reader_left = s.r_done < kModelReads;
  if (!writer_left && !reader_left) {
    ++out.executions;
    for (int i = 1; i < kModelReads; ++i) {
      if (s.result[i] != 0 && s.result[i] < s.result[i - 1]) {
        ++out.regressions;
        break;
      }
    }
    return;
  }
  if (writer_left) {
    ModelState next = s;
    writer_step(next);
    explore(next, rule, out);
  }
  if (reader_left) {
    ModelState next = s;
    if (reader_step(next, rule)) explore(next, rule, out);
  }
}

ModelOutcome check_rule(SlotRule rule) {
  ModelOutcome out;
  explore(ModelState{}, rule, out);
  return out;
}

// The checker is not vacuous: under the parity rule it finds the lapped
// slot.  Reader loads version_ = 1; the writer completes publication 2 in
// slot 0, then fills publication 3 into slot 1 and stops before storing
// version_ = 3.  The reader accepts slot 1's even seq and returns 3; its
// next read loads version_ = 2 and returns 2.
TEST(Seqlock, ModelFlagsParityRuleLappedSlot) {
  const ModelOutcome out = check_rule(parity_rule);
  EXPECT_GT(out.executions, 0u);
  EXPECT_GT(out.regressions, 0u)
      << "the model must reproduce the lapped-slot regression";
}

// The rule read() uses: no interleaving hands the reader an older version.
TEST(Seqlock, ModelReadsNeverGoBackward) {
  const ModelOutcome out =
      check_rule(&util::Seqlock<std::uint64_t>::slot_holds);
  EXPECT_GT(out.executions, 0u);
  EXPECT_EQ(out.regressions, 0u) << "snapshot went backwards in the model";
}

}  // namespace
}  // namespace mtds
