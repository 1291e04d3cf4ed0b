#include "layers.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "common.h"
#include "core/byz_sync.h"
#include "core/marzullo.h"
#include "net/protocol.h"
#include "net/serving_plane.h"
#include "net/udp_socket.h"
#include "service/snapshot.h"
#include "sim/event_queue.h"
#include "util/seqlock.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 7;

// Keeps a result observable so a timed loop cannot be discarded.
std::atomic<std::uint64_t> g_sink{0};

// Median over kRepeats of (seconds of `body(iters)`) / iters, in ns.  The
// body folds its results into the value it returns.
template <typename Body>
double timed_ns(std::size_t iters, Body&& body) {
  std::vector<double> per_op;
  g_sink.store(body(iters / 4 + 1), std::memory_order_relaxed);  // warm up
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = wall_seconds();
    const std::uint64_t folded = body(iters);
    per_op.push_back((wall_seconds() - t0) * 1e9 / static_cast<double>(iters));
    g_sink.store(folded, std::memory_order_relaxed);
  }
  return median(per_op);
}

}  // namespace

double replay_event_queue_ns(std::size_t timers, double tau,
                             std::uint64_t seed) {
  mtds::sim::EventQueue queue;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> phase(0.0, tau);
  std::uniform_real_distribution<double> jitter(0.9 * tau, 1.1 * tau);
  std::vector<double> periods(1024);
  for (double& p : periods) p = jitter(rng);

  struct Timer {
    mtds::sim::EventQueue* queue;
    const std::vector<double>* periods;
    std::size_t next = 0;
    std::uint64_t fired = 0;
    void fire() {
      ++fired;
      const double p = (*periods)[next++ & 1023];
      queue->after(p, [this] { fire(); });
    }
  };
  std::vector<Timer> population(timers);
  for (std::size_t i = 0; i < timers; ++i) {
    population[i] = Timer{&queue, &periods, i, 0};
    Timer* t = &population[i];
    queue.at(phase(rng), [t] { t->fire(); });
  }
  const std::size_t events = std::max<std::size_t>(200'000, timers * 4);
  return timed_ns(events, [&](std::size_t n) { return queue.run_all(n); });
}

double replay_marzullo_ns(std::size_t readings, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> center(-0.002, 0.002);
  std::uniform_real_distribution<double> width(0.005, 0.02);
  std::vector<mtds::core::TimeInterval> intervals;
  for (std::size_t i = 0; i < readings; ++i) {
    intervals.push_back(
        mtds::core::TimeInterval::from_center_error(center(rng), width(rng)));
  }
  mtds::core::MarzulloScratch scratch;
  mtds::core::BestIntersection best;
  return timed_ns(200'000, [&](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      mtds::core::best_intersection(intervals, scratch, best);
      acc += best.coverage;
    }
    return acc;
  });
}

double replay_byz_sync_ns(std::size_t readings, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> offset(-0.002, 0.002);
  std::uniform_real_distribution<double> error(0.005, 0.02);
  std::uniform_real_distribution<double> rtt(0.002, 0.006);
  const double now = 100.0;
  std::vector<mtds::core::TimeReading> replies;
  for (std::size_t i = 0; i < readings; ++i) {
    mtds::core::TimeReading r;
    r.from = static_cast<mtds::core::ServerId>(i + 1);
    r.c = now + offset(rng);
    r.e = error(rng);
    r.rtt_own = rtt(rng);
    r.local_receive = now;
    replies.push_back(r);
  }
  mtds::core::ByzantineSync byz;
  mtds::core::LocalState local;
  local.clock = now;
  local.error = 0.01;
  local.delta = 2e-5;
  const std::size_t iters = readings > 32 ? 50'000 : 200'000;
  return timed_ns(iters, [&](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += byz.on_round(local, replies).reset.has_value() ? 1 : 0;
    }
    return acc;
  });
}

ProtocolCosts replay_protocol() {
  ProtocolCosts costs;
  mtds::net::ClientTimeRequest req;
  req.tag = 0x1234;
  costs.encode_ns = timed_ns(1'000'000, [&](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      req.client_send_ns = static_cast<std::int64_t>(i);
      acc += mtds::net::encode(req)[23];  // low byte of the send stamp
    }
    return acc;
  });
  mtds::net::ClientTimeReply reply;
  reply.tag = 7;
  reply.clock_ns = 123456789;
  reply.error_ns = 1000000;
  const auto wire = mtds::net::encode(reply);
  costs.decode_ns = timed_ns(1'000'000, [&](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto decoded =
          mtds::net::decode_client_reply(wire.data(), wire.size());
      acc += decoded ? decoded->tag : 0;
    }
    return acc;
  });
  return costs;
}

double replay_serve_batch_ns(std::size_t batch) {
  // RecvBatch is filled only by a real receive, so send one batch of
  // requests over loopback and replay serving it.
  mtds::net::UdpSocket server;
  mtds::net::UdpSocket client;
  for (std::size_t i = 0; i < batch; ++i) {
    mtds::net::ClientTimeRequest req;
    req.tag = i;
    req.client_send_ns = static_cast<std::int64_t>(i);
    const auto bytes = mtds::net::encode(req);
    client.send_to(server.port(), bytes);
  }
  // Loopback delivery is synchronous, so every request is already queued.
  mtds::net::RecvBatch recv(batch, 512);
  const std::size_t got = server.receive_batch(recv, 1000);
  if (got == 0) return 0.0;
  mtds::service::ClockSnapshot snap;
  snap.base = 1000.0;
  snap.error = 0.001;
  snap.published_at = 1000.0;
  snap.delta = 1e-5;
  snap.server_id = 1;
  mtds::net::SendBatch out(batch, 512);
  const double per_batch = timed_ns(100'000, [&](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.clear();
      acc += mtds::net::serve_client_batch(recv, snap, 1000.5 + 1e-9 * i, out);
    }
    return acc;
  });
  return per_batch / static_cast<double>(got);
}

SeqlockCosts replay_seqlock(double publishes_per_s) {
  SeqlockCosts costs;
  mtds::util::Seqlock<mtds::service::ClockSnapshot> cell;
  mtds::service::ClockSnapshot snap;
  snap.server_id = 1;
  cell.publish(snap);
  auto read_loop = [&](std::size_t n) {
    mtds::service::ClockSnapshot out;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cell.read(out);
      acc += out.server_id;
    }
    return acc;
  };
  costs.idle_ns = timed_ns(2'000'000, read_loop);
  if (publishes_per_s <= 0.0) return costs;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    const double period = 1.0 / publishes_per_s;
    double next = wall_seconds();
    mtds::service::ClockSnapshot w;
    w.server_id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      next += period;
      w.base = w.base + mtds::core::Duration{period};
      cell.publish(w);
      while (wall_seconds() < next && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    }
  });
  costs.contended_ns = timed_ns(2'000'000, read_loop);
  stop.store(true);
  writer.join();
  return costs;
}

}  // namespace perfbench
