// The serve workload: the serving plane under a closed-loop client load.
//
// Three net::UdpTimeServers on loopback, all syncing by algorithm MM every
// 20 ms.  The served one answers client queries on two SO_REUSEPORT shards
// (default mmsg backend), so its seqlock is written while the shards read
// it.  Its clock runs 0.85% slow, so each reset steps it forward by about
// 0.17 ms; the two peers are references that agree within tens of
// microseconds, so which one it follows does not matter.  Two load
// threads in this process each own kSocketsPerThread client sockets and
// keep kWindow requests in flight on each: the number of outstanding
// requests is fixed (a closed loop).
//
// Every reply is checked: it must decode, match an outstanding request,
// name the served server, echo the send stamp, and its interval
// [C - E, C + E] must meet the [send, receive] window of host time the
// client saw (the server's clock is virtualised over the same host clock).
// A request with no valid reply within kTimeout is a failure.
//
// The latency percentiles are taken over every reply of the measured
// phase.  The rate, the largest error bound served and the largest offset
// difference between the servers are taken per 1-second window, and the
// run reports their medians over the windows.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "layers.h"
#include "net/protocol.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mtds::net::UdpTimeServer;

constexpr unsigned kLoadThreads = 2;
constexpr unsigned kSocketsPerThread = 32;
constexpr unsigned kWindow = 2;       // requests in flight per socket
constexpr double kTimeout = 0.5;      // seconds without a reply = failed
constexpr double kPoll = 0.02;        // sync period of all three servers
constexpr double kStatWindow = 1.0;   // seconds per statistics window
constexpr std::uint32_t kServedId = 1;
constexpr int kSetupRepeats = 15;  // set-ups before the load, and as many after
constexpr std::size_t kSpanCap = 100'000;  // spans kept per thread and kind

static_assert((kWindow & (kWindow - 1)) == 0 && kWindow <= 16,
              "the slot is the tag's low 4 bits, masked by kWindow - 1");
static_assert(kLoadThreads <= 4 && kSocketsPerThread <= 64,
              "tag fields: 2 bits of thread, 6 of socket");

std::int64_t now_ns() { return mtds::net::seconds_to_ns(wall_seconds()); }

struct Fleet {
  std::unique_ptr<UdpTimeServer> served;
  std::unique_ptr<UdpTimeServer> peer_a;
  std::unique_ptr<UdpTimeServer> peer_b;

  std::vector<UdpTimeServer*> all() const {
    return {served.get(), peer_a.get(), peer_b.get()};
  }
};

Fleet start_fleet(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> off(-0.01, 0.01);

  auto config = [](std::uint32_t id, double error, double offset,
                   double drift, double delta) {
    mtds::net::UdpServerConfig c;
    c.id = id;
    c.algo = mtds::core::SyncAlgorithm::kMM;
    c.claimed_delta = delta;
    c.simulated_drift = drift;
    c.initial_error = error;
    c.initial_offset = mtds::core::Offset{offset};
    c.poll_period = kPoll;
    c.reply_timeout = 0.01;
    return c;
  };
  // The served server starts up to 10 ms off with a 50 ms bound; the peers
  // carry equal 1 ms bounds, so neither ever resets from the other.
  auto served = config(kServedId, 0.05, off(rng), -8.5e-3, 1e-2);
  served.client_threads = 2;

  Fleet f;
  f.served = std::make_unique<UdpTimeServer>(served);
  f.peer_a = std::make_unique<UdpTimeServer>(config(2, 1e-3, 1e-5, 1e-6, 1e-5));
  f.peer_b = std::make_unique<UdpTimeServer>(config(3, 1e-3, -1e-5, -1e-6, 1e-5));
  f.served->set_peers({f.peer_a->port(), f.peer_b->port()});
  f.peer_a->set_peers({f.served->port(), f.peer_b->port()});
  f.peer_b->set_peers({f.served->port(), f.peer_a->port()});
  for (UdpTimeServer* s : f.all()) s->start();
  return f;
}

// Sends a client request (again every 10 ms) until a reply from the
// served server arrives.
bool first_reply(std::uint16_t port, double timeout) {
  mtds::net::UdpSocket sock;
  mtds::net::ClientTimeRequest req;
  req.tag = 1;
  const double deadline = wall_seconds() + timeout;
  std::uint8_t buf[512];
  while (wall_seconds() < deadline) {
    req.client_send_ns = now_ns();
    sock.send_to(port, mtds::net::encode(req));
    const auto n = sock.receive_into(buf, nullptr, 10);
    if (!n) continue;
    const auto reply = mtds::net::decode_client_reply(buf, *n);
    if (reply && reply->tag == req.tag && reply->server_id == kServedId) {
      return true;
    }
  }
  return false;
}

// Per-thread tallies of one measured phase: the latency of every valid
// reply, and per statistics window the valid replies and the largest
// error bound served.
struct PhaseStats {
  LatencyHistogram latency;
  std::vector<std::uint64_t> valid;
  std::vector<std::int64_t> max_error_ns;
};

struct LoadStats {
  std::uint64_t sent = 0;
  std::uint64_t valid = 0;
  std::uint64_t invalid = 0;  // undecodable, wrong server/echo, bad interval
  std::uint64_t timeouts = 0;
  std::uint64_t regressions = 0;
  std::vector<PhaseStats> phases;  // untraced, then traced in a traced run
  // Traced phase only: syscall batch timings, and the first kSpanCap of
  // each kind as spans (start, end) for the trace file.
  std::uint64_t send_calls = 0, recv_calls = 0, recv_datagrams = 0;
  double send_s = 0.0, recv_s = 0.0;
  std::vector<std::pair<double, double>> send_spans, recv_spans;
};

// Written by the main thread, read by the load threads.
struct Control {
  enum State { kIdle, kMeasure, kDrain };
  std::atomic<int> state{kIdle};
  std::atomic<int> phase{0};           // index into LoadStats::phases
  std::atomic<std::int64_t> start_ns{0};
};

struct Slot {
  std::uint64_t tag = 0;
  std::int64_t send_ns = 0;
  bool busy = false;
};

struct ClientSocket {
  mtds::net::UdpSocket sock;
  Slot slots[kWindow];
  std::int64_t last_clock_ns = 0;
  bool have_last = false;
};

void load_thread(unsigned index, std::uint16_t port, std::uint64_t seed,
                 std::size_t phases, std::size_t windows,
                 const Control& control, LoadStats& stats) {
  stats.phases.resize(phases);
  for (PhaseStats& p : stats.phases) {
    p.valid.assign(windows, 0);
    p.max_error_ns.assign(windows, 0);
  }
  std::vector<std::unique_ptr<ClientSocket>> sockets;
  std::vector<pollfd> fds;
  for (unsigned s = 0; s < kSocketsPerThread; ++s) {
    sockets.push_back(std::make_unique<ClientSocket>());
    fds.push_back({sockets.back()->sock.fd(), POLLIN, 0});
  }
  const sockaddr_in server = mtds::net::UdpSocket::loopback(port);
  mtds::net::SendBatch send(kWindow, 64);
  mtds::net::RecvBatch recv(kWindow * 2, 512);
  // Tags: a per-run random prefix (from the seed), thread, socket, sequence
  // number and slot, so a late or foreign reply can never match.
  const std::uint64_t prefix = (std::mt19937_64(seed + index)() & 0xFFF) << 52;
  std::uint64_t seq = 0;
  const std::int64_t window_ns = mtds::net::seconds_to_ns(kStatWindow);
  double next_timeout_scan = wall_seconds() + 0.01;

  for (;;) {
    const int state = control.state.load(std::memory_order_acquire);
    const bool measuring = state == Control::kMeasure;
    const int phase = control.phase.load(std::memory_order_relaxed);
    const bool traced = measuring && phase == 1;
    bool any_busy = false;
    for (unsigned s = 0; s < kSocketsPerThread; ++s) {
      ClientSocket& cs = *sockets[s];
      if (state != Control::kDrain) {
        send.clear();
        const std::int64_t t_send = now_ns();
        for (unsigned i = 0; i < kWindow; ++i) {
          Slot& slot = cs.slots[i];
          if (slot.busy) continue;
          mtds::net::ClientTimeRequest req;
          req.tag = prefix | (static_cast<std::uint64_t>(index) << 50) |
                    (static_cast<std::uint64_t>(s) << 44) | (++seq << 4) | i;
          req.client_send_ns = t_send;
          const auto bytes = mtds::net::encode(req);
          std::memcpy(send.append(server, bytes.size()), bytes.data(),
                      bytes.size());
          slot = {req.tag, t_send, true};
        }
        if (send.size() > 0) {
          const double w0 = traced ? wall_seconds() : 0.0;
          const std::size_t n = cs.sock.send_batch(send);
          if (traced) {
            const double w1 = wall_seconds();
            stats.send_s += w1 - w0;
            ++stats.send_calls;
            if (stats.send_spans.size() < kSpanCap) stats.send_spans.emplace_back(w0, w1);
          }
          stats.sent += n;
          // Requests the kernel refused were never sent: free their slots.
          for (std::size_t k = n; k < send.size(); ++k) {
            const auto p = send.payload(k);
            const auto req = mtds::net::decode_client_request(p.data(), p.size());
            if (req) cs.slots[req->tag & (kWindow - 1)].busy = false;
          }
        }
      }
      for (const Slot& slot : cs.slots) any_busy = any_busy || slot.busy;
    }
    if (state == Control::kDrain && !any_busy) break;

    if (::poll(fds.data(), fds.size(), 1) > 0) {
      const std::int64_t start = control.start_ns.load(std::memory_order_relaxed);
      for (unsigned s = 0; s < kSocketsPerThread; ++s) {
        if ((fds[s].revents & POLLIN) == 0) continue;
        ClientSocket& cs = *sockets[s];
        const double w0 = traced ? wall_seconds() : 0.0;
        const std::size_t got = cs.sock.receive_batch(recv, 0);
        const std::int64_t t_recv = now_ns();
        if (traced) {
          const double w1 = wall_seconds();
          stats.recv_s += w1 - w0;
          ++stats.recv_calls;
          stats.recv_datagrams += got;
          if (stats.recv_spans.size() < kSpanCap) stats.recv_spans.emplace_back(w0, w1);
        }
        const auto w = static_cast<std::size_t>(
            std::max<std::int64_t>(0, t_recv - start) / window_ns);
        for (std::size_t k = 0; k < got; ++k) {
          const auto p = recv.payload(k);
          const auto reply = mtds::net::decode_client_reply(p.data(), p.size());
          if (!reply) {
            ++stats.invalid;
            continue;
          }
          Slot& slot = cs.slots[reply->tag & (kWindow - 1)];
          if (!slot.busy || slot.tag != reply->tag) continue;  // late reply
          slot.busy = false;
          const std::int64_t c = reply->clock_ns;
          const std::int64_t e = reply->error_ns;
          if (reply->server_id != kServedId ||
              reply->client_send_ns != slot.send_ns || e < 0 ||
              c - e > t_recv || c + e < slot.send_ns) {
            ++stats.invalid;
            continue;
          }
          ++stats.valid;
          // One socket is served by one shard, whose evaluation time only
          // moves forward and whose resets step the clock forward; a clock
          // that steps back by more than 1 us means the shard read an
          // older snapshot after a newer one.
          const bool regressed = cs.have_last && c + 1000 < cs.last_clock_ns;
          cs.last_clock_ns = c;
          cs.have_last = true;
          if (!measuring || w >= windows) continue;
          PhaseStats& ps = stats.phases[phase];
          ++ps.valid[w];
          ps.latency.add_ns(t_recv - slot.send_ns);
          ps.max_error_ns[w] = std::max(ps.max_error_ns[w], e);
          if (regressed) ++stats.regressions;
        }
      }
    }
    const double now = wall_seconds();
    if (now >= next_timeout_scan) {
      next_timeout_scan = now + 0.01;
      const std::int64_t limit = now_ns() - mtds::net::seconds_to_ns(kTimeout);
      for (auto& cs : sockets) {
        for (Slot& slot : cs->slots) {
          if (slot.busy && slot.send_ns < limit) {
            slot.busy = false;
            ++stats.timeouts;
          }
        }
      }
    }
  }
}

// One phase's figures: latency percentiles over all its replies, rate and
// largest error bound as medians over its full statistics windows.
struct PhaseResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_error_ms = 0.0;
  std::size_t windows = 0;
  std::uint64_t samples = 0;
};

PhaseResult summarize(const std::vector<LoadStats>& stats, int phase,
                      std::size_t full_windows) {
  LatencyHistogram latency;
  std::vector<double> qps, error;
  for (const auto& s : stats) latency.merge(s.phases[phase].latency);
  for (std::size_t w = 0; w < full_windows; ++w) {
    std::uint64_t valid = 0;
    std::int64_t max_error = 0;
    for (const auto& s : stats) {
      valid += s.phases[phase].valid[w];
      max_error = std::max(max_error, s.phases[phase].max_error_ns[w]);
    }
    error.push_back(static_cast<double>(max_error) * 1e-6);
    qps.push_back(static_cast<double>(valid) / kStatWindow);
  }
  PhaseResult r;
  r.qps = median(qps);
  r.p50_us = latency.quantile_us(0.50);
  r.p99_us = latency.quantile_us(0.99);
  r.max_error_ms = median(error);
  r.windows = full_windows;
  r.samples = latency.count();
  return r;
}

}  // namespace

RunResult run_serve(const Options& opt, Tracer& tracer) {
  RunResult result;

  // Set-up: build and start the fleet until the first valid reply,
  // several times before the load (the last fleet carries it) and, in an
  // untraced run, as many times after it.
  std::vector<double> setups;
  Fleet fleet;
  auto time_setups = [&] {
    for (int r = 0; r < kSetupRepeats; ++r) {
      fleet = Fleet{};  // stops and joins the previous fleet, untimed
      const double t0 = wall_seconds();
      fleet = start_fleet(opt.seed);
      const bool ok = first_reply(fleet.served->client_port(), 2.0);
      setups.push_back(wall_seconds() - t0);
      result.check(ok);
    }
  };
  time_setups();

  // Phases: the whole budget untraced, or untraced then traced halves.
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto full_windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(phase_s / kStatWindow));
  const std::size_t windows = full_windows + 2;

  Control control;
  std::vector<LoadStats> stats(kLoadThreads);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kLoadThreads; ++i) {
    threads.emplace_back(load_thread, i, fleet.served->client_port(), opt.seed,
                         opt.trace ? 2 : 1, windows, std::cref(control),
                         std::ref(stats[i]));
  }

  // Warm-up: the served server converges onto its peers.
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.quick ? 0.2 : 1.0));

  const auto served_before = fleet.served->counters();
  const auto peer_a_before = fleet.peer_a->counters();
  const auto peer_b_before = fleet.peer_b->counters();
  const std::uint64_t queries_before = fleet.served->client_queries_served();

  // The main thread samples the servers' offsets from host time meanwhile,
  // keeping each window's largest pairwise difference.
  std::vector<double> window_async(windows, 0.0);
  auto run_phase = [&](int phase) {
    control.phase.store(phase, std::memory_order_relaxed);
    const double t0 = wall_seconds();
    control.start_ns.store(mtds::net::seconds_to_ns(t0), std::memory_order_relaxed);
    control.state.store(Control::kMeasure, std::memory_order_release);
    while (wall_seconds() - t0 < phase_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      double lo = 0.0, hi = 0.0;
      bool any = false;
      for (UdpTimeServer* s : fleet.all()) {
        const double o = s->true_offset().seconds();
        lo = any ? std::min(lo, o) : o;
        hi = any ? std::max(hi, o) : o;
        any = true;
      }
      const auto w = static_cast<std::size_t>((wall_seconds() - t0) / kStatWindow);
      if (phase == 0 && w < windows) {
        window_async[w] = std::max(window_async[w], hi - lo);
      }
    }
    control.state.store(Control::kIdle, std::memory_order_release);
    return wall_seconds() - t0;
  };

  double measured_s = run_phase(0);
  if (opt.trace) {
    ScopedSpan span(tracer, "serve.traced_phase");
    measured_s += run_phase(1);
  }

  const auto served_after = fleet.served->counters();
  const auto peer_a_after = fleet.peer_a->counters();
  const auto peer_b_after = fleet.peer_b->counters();
  const std::uint64_t queries =
      fleet.served->client_queries_served() - queries_before;

  control.state.store(Control::kDrain, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (const auto& s : stats) {
    for (const auto& [a, b] : s.send_spans) tracer.add("udp_socket.send_batch", a, b);
    for (const auto& [a, b] : s.recv_spans) tracer.add("udp_socket.receive_batch", a, b);
  }

  LoadStats total;
  for (const auto& s : stats) {
    total.sent += s.sent;
    total.valid += s.valid;
    total.invalid += s.invalid;
    total.timeouts += s.timeouts;
    total.regressions += s.regressions;
    total.send_calls += s.send_calls;
    total.recv_calls += s.recv_calls;
    total.recv_datagrams += s.recv_datagrams;
    total.send_s += s.send_s;
    total.recv_s += s.recv_s;
  }
  // Every request sent is one operation: answered validly, or failed.
  result.attempted += total.sent;
  result.failed += total.invalid + total.timeouts;

  const PhaseResult plain = summarize(stats, 0, full_windows);
  const std::uint64_t sockets = kLoadThreads * kSocketsPerThread;
  result.notes.push_back(
      "closed loop: " + std::to_string(kLoadThreads) + " load threads x " +
      std::to_string(kSocketsPerThread) + " client sockets x " +
      std::to_string(kWindow) + " in flight = " +
      std::to_string(sockets * kWindow) + " outstanding");
  result.notes.push_back(
      "sent " + std::to_string(total.sent) + ", valid " +
      std::to_string(total.valid) + ", invalid " + std::to_string(total.invalid) +
      ", timed out " + std::to_string(total.timeouts) + ", clock regressions " +
      std::to_string(total.regressions));
  result.notes.push_back(
      "latency over " + std::to_string(plain.samples) +
      " replies; rate and accuracy are medians over " +
      std::to_string(plain.windows) + " windows of " +
      std::to_string(static_cast<int>(kStatWindow)) + " s");

  if (!opt.trace) {
    result.set("throughput", plain.qps, "op/s");
    result.set("p50_us", plain.p50_us, "us");
    result.set("p99_us", plain.p99_us, "us");
    time_setups();
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("max_error_ms", plain.max_error_ms, "ms");
    window_async.resize(full_windows);
    result.set("max_async_ms", median(window_async) * 1e3, "ms");
    return result;
  }

  for (const auto& m : per_layer_metrics()) result.set(m.name, 0.0, m.unit);
  double rounds = 0, replies = 0, resets = 0;
  for (UdpTimeServer* s : fleet.all()) {
    const auto c = s->counters();
    rounds += static_cast<double>(c.rounds);
    replies += static_cast<double>(c.replies_received);
    resets += static_cast<double>(c.resets);
  }
  result.set("service.protocol_engine.rounds", rounds, "count");
  result.set("service.protocol_engine.replies_per_round",
             replies / std::max(1.0, rounds), "ratio");
  result.set("service.protocol_engine.resets_per_round",
             resets / std::max(1.0, rounds), "ratio");

  result.set("net.udp_socket.client_sockets", static_cast<double>(sockets), "count");
  if (total.send_calls > 0) {
    result.set("net.udp_socket.send_batch_us",
               total.send_s * 1e6 / static_cast<double>(total.send_calls), "us");
  }
  if (total.recv_calls > 0) {
    result.set("net.udp_socket.recv_batch_us",
               total.recv_s * 1e6 / static_cast<double>(total.recv_calls), "us");
    result.set("net.udp_socket.recv_fill",
               static_cast<double>(total.recv_datagrams) /
                   static_cast<double>(total.recv_calls),
               "count");
  }
  const auto proto = replay_protocol();
  result.set("net.protocol.encode_ns", proto.encode_ns, "ns");
  result.set("net.protocol.decode_ns", proto.decode_ns, "ns");
  result.set("net.serving_plane.served", static_cast<double>(queries), "count");
  result.set("net.serving_plane.loss_frac",
             static_cast<double>(total.timeouts) /
                 static_cast<double>(std::max<std::uint64_t>(1, total.sent)),
             "frac");
  result.set("net.serving_plane.serve_ns_per_datagram", replay_serve_batch_ns(64),
             "ns");

  // The engine publishes a snapshot after every round and every reset.
  const double publishes =
      static_cast<double>((served_after.rounds - served_before.rounds) +
                          (served_after.resets - served_before.resets));
  const auto seq = replay_seqlock(publishes / measured_s);
  result.set("util.seqlock.read_ns_idle", seq.idle_ns, "ns");
  result.set("util.seqlock.read_ns_contended", seq.contended_ns, "ns");
  result.set("util.seqlock.publishes", publishes, "count");
  result.set("util.seqlock.reply_regressions",
             static_cast<double>(total.regressions), "count");

  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double peer_rounds = delta(peer_a_after.rounds, peer_a_before.rounds) +
                             delta(peer_b_after.rounds, peer_b_before.rounds);
  const double peer_requests =
      delta(peer_a_after.requests_sent, peer_a_before.requests_sent) +
      delta(peer_b_after.requests_sent, peer_b_before.requests_sent);
  const double peer_replies =
      delta(peer_a_after.replies_received, peer_a_before.replies_received) +
      delta(peer_b_after.replies_received, peer_b_before.replies_received);
  result.set("runtime.udp_runtime.rounds_per_s", peer_rounds / measured_s, "1/s");
  result.set("runtime.udp_runtime.replies_per_request",
             peer_replies / std::max(1.0, peer_requests), "ratio");

  const PhaseResult traced = summarize(stats, 1, full_windows);
  result.set("trace.overhead_frac", (plain.qps - traced.qps) / plain.qps, "frac");
  result.notes.push_back("untraced qps " + std::to_string(plain.qps) +
                         ", traced qps " + std::to_string(traced.qps));
  return result;
}

}  // namespace perfbench
