// Chaos soak: the whole chaos plane + peer-health stack under sustained
// fire, on both runtimes.
//
// A service of honest MM servers runs under 10% loss, 10% duplication and
// 10% delay spikes, with one confidently-wrong liar (quarantined as
// persistently inconsistent, Section 4) and one crash-stopped server
// (discovered dead, probed on backoff).  The surviving well-behaved servers
// must stay correct() and inside the Theorem 3 asynchronism bound, and the
// sim run must replay bit-for-bit: identical seeds, identical fault
// ledgers.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/bounds.h"
#include "net/udp_server.h"
#include "runtime/adversary.h"
#include "service/time_service.h"

namespace mtds {
namespace {

using core::ServerId;

// --- SimRuntime ----------------------------------------------------------

constexpr int kHonest = 5;        // ids 0..4
constexpr ServerId kLiar = 5;     // NONE responder, 40 s off, tiny claimed E
constexpr ServerId kCrashed = 6;  // honest but crash-stopped at t=60
constexpr ServerId kCorrupt = 1;  // honest, state-corrupted at t=120
constexpr double kHorizon = 300.0;

service::ServiceConfig soak_config() {
  service::ServiceConfig cfg;
  cfg.seed = 1234;
  cfg.delay_hi = 0.005;
  cfg.sample_interval = 0.0;
  for (int i = 0; i < kHonest + 2; ++i) {
    service::ServerSpec s;
    s.algo = core::SyncAlgorithm::kMM;
    s.claimed_delta = 2e-5;
    s.actual_drift = (i % kHonest - 2) * 6e-6;
    s.initial_error = 0.01;
    s.poll_period = 5.0;
    s.health.enabled = true;
    s.health.quarantine_after = 3;
    s.chaos.drop = 0.1;
    s.chaos.duplicate = 0.1;
    s.chaos.delay = 0.1;
    s.chaos.delay_hi = 0.05;
    s.chaos.seed = 0x50AC + static_cast<std::uint64_t>(i);
    cfg.servers.push_back(s);
  }
  // The corrupt-state victim: after the scramble its own tiny bogus error
  // makes every honest reply look inconsistent to MM, so re-containment
  // must come through Section 3 third-server recovery, not rule MM-2.
  cfg.servers[kCorrupt].recovery = service::RecoveryPolicy::kThirdServer;
  cfg.servers[kCorrupt].recovery_pool = {0};
  // The liar: answers every poll 40 s off while claiming near-zero error -
  // never in any honest consistency group.
  cfg.servers[kLiar].algo = core::SyncAlgorithm::kNone;
  cfg.servers[kLiar].claimed_delta = 1e-6;
  cfg.servers[kLiar].actual_drift = 0.0;
  cfg.servers[kLiar].initial_offset = core::Offset{-40.0};
  cfg.servers[kLiar].initial_error = 0.001;
  // The liar also equivocates (+/-20 ms by destination parity) through the
  // same fault gauntlet, so the soak exercises the Byzantine plane riding
  // loss/duplication/delay.  Forged is an attribute of outbound copies, not
  // a new copy class - the balance equation must be untouched.
  cfg.servers[kLiar].chaos.adversary =
      std::make_shared<runtime::TwoFaced>(0.02, 0.001);
  return cfg;
}

std::vector<runtime::FaultStats> run_soak(service::TimeService& service) {
  service.run_until(60.0);
  service.crash_server(kCrashed);
  service.run_until(120.0);
  service.corrupt_server_state(kCorrupt);
  service.run_until(kHorizon);
  std::vector<runtime::FaultStats> ledgers;
  for (std::size_t i = 0; i < service.size(); ++i) {
    ledgers.push_back(service.server(i).fault_injector()->stats());
  }
  return ledgers;
}

TEST(ChaosSoak, SimSurvivorsStayCorrectAndBounded) {
  service::TimeService service(soak_config());
  run_soak(service);
  const core::RealTime now = service.now();

  // Every live well-behaved server is correct despite the chaos.
  for (int i = 0; i < kHonest; ++i) {
    EXPECT_TRUE(service.server(i).correct(now)) << "S" << i;
  }
  EXPECT_FALSE(service.server(kCrashed).running());

  // Theorem 3 pairwise asynchronism bound among the honest servers.  xi is
  // the round-trip bound including the injector's worst delay spike.
  const double xi = 2.0 * (0.005 + 0.05);
  core::Duration e_min{1e9};
  for (int i = 0; i < kHonest; ++i) {
    e_min = std::min<core::Duration>(e_min, service.server(i).current_error(now));
  }
  for (int i = 0; i < kHonest; ++i) {
    for (int j = i + 1; j < kHonest; ++j) {
      const double asym = std::abs((service.server(i).read_clock(now) -
                                    service.server(j).read_clock(now))
                                       .seconds());
      EXPECT_LT(asym,
                core::mm_asynchronism_bound(e_min, xi, 2e-5, 2e-5, 5.0)
                    .seconds())
          << "S" << i << " vs S" << j;
    }
  }

  std::uint64_t deaths = 0, probes = 0, suppressed = 0, quarantines = 0;
  for (int i = 0; i < kHonest; ++i) {
    const auto& c = service.server(i).counters();
    deaths += c.peer_deaths;
    probes += c.probes_sent;
    suppressed += c.polls_suppressed;
    quarantines += c.quarantines;
    // Section 4: every honest server expelled the liar from its group...
    EXPECT_EQ(service.server(i).peer_state(kLiar),
              service::PeerState::kQuarantined)
        << "S" << i;
    // ... and wrote off the crashed server.
    EXPECT_EQ(service.server(i).peer_state(kCrashed),
              service::PeerState::kDead)
        << "S" << i;
    // Nobody with live peers degraded.
    EXPECT_FALSE(service.server(i).degraded()) << "S" << i;
  }
  EXPECT_GT(deaths, 0u);
  EXPECT_GT(quarantines, 0u);

  // The corrupt-state fault landed and was absorbed: the victim consulted
  // its recovery pool and re-contained its clock (it is correct at the
  // horizon per the loop above) within a bounded number of rounds.
  const auto& corrupted = service.server(kCorrupt).counters();
  EXPECT_EQ(corrupted.state_corruptions, 1u);
  EXPECT_GE(corrupted.recoveries, 1u);
  EXPECT_GE(corrupted.recovery_rounds, 1u);
  EXPECT_LE(corrupted.recovery_rounds, 10u);
  // Dead peers are provably not polled at full rate: the backoff suppressed
  // far more round slots than it probed.
  EXPECT_GT(probes, 0u);
  EXPECT_GT(suppressed, 0u);
  EXPECT_LT(probes, suppressed);

  // The chaos actually happened, and the ledger invariant holds once the
  // (drained) sim run finished.
  for (std::size_t i = 0; i < service.size(); ++i) {
    const auto s = service.server(i).fault_injector()->stats();
    if (i != kCrashed) {
      EXPECT_GT(s.dropped_loss, 0u) << "S" << i;
      EXPECT_GT(s.duplicated, 0u) << "S" << i;
      EXPECT_GT(s.delayed, 0u) << "S" << i;
    }
    EXPECT_EQ(s.outbound + s.inbound + s.duplicated,
              s.forwarded + s.dropped_loss + s.dropped_partition +
                  s.dropped_crash)
        << "S" << i;
    // Adversary-plane accounting: forged copies are attributes, never extra
    // copies, and only the liar's strategy rewrote anything.
    EXPECT_LE(s.equivocations, s.forged) << "S" << i;
    EXPECT_LE(s.forged, s.outbound) << "S" << i;
    if (i == kLiar) {
      EXPECT_GT(s.forged, 0u);
      EXPECT_GT(s.equivocations, 0u);
    } else {
      EXPECT_EQ(s.forged, 0u) << "S" << i;
    }
  }
}

TEST(ChaosSoak, SimIdenticalSeedsReplayIdenticalLedgers) {
  service::TimeService a(soak_config());
  service::TimeService b(soak_config());
  EXPECT_EQ(run_soak(a), run_soak(b));
  // Beyond the fault ledgers: the corrupt-state recovery trajectory is part
  // of the replay contract - same seed, same round the scramble is detected,
  // same number of rounds to re-containment.
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ca = a.server(i).counters();
    const auto& cb = b.server(i).counters();
    EXPECT_EQ(ca.state_corruptions, cb.state_corruptions) << "S" << i;
    EXPECT_EQ(ca.recovery_rounds, cb.recovery_rounds) << "S" << i;
    EXPECT_EQ(ca.recoveries, cb.recoveries) << "S" << i;
    EXPECT_EQ(ca.resets, cb.resets) << "S" << i;
    EXPECT_EQ(ca.quarantines, cb.quarantines) << "S" << i;
  }
}

// --- UdpRuntime ----------------------------------------------------------
//
// The same story over loopback sockets: four MM learners under chaos, a
// liar that gets quarantined, and a responder crash-stopped via its
// injector, discovered dead, then healed after restart.

TEST(ChaosSoak, UdpSurvivorsStayCorrectAndHeal) {
  constexpr int kLearners = 4;
  constexpr double kPoll = 0.05;
  constexpr double kReplyWindow = 0.02;
  constexpr double kSpike = 0.005;

  // A liar and an honest crash-target responder.
  net::UdpServerConfig liar_cfg;
  liar_cfg.id = 100;
  liar_cfg.algo = core::SyncAlgorithm::kNone;
  liar_cfg.claimed_delta = 1e-6;
  liar_cfg.initial_error = 0.0005;
  liar_cfg.initial_offset = core::Offset{-5.0};
  // The liar equivocates over real sockets too: same Byzantine plane, UDP
  // serialization domain (the injector runs under the runtime's mutex).
  liar_cfg.chaos.adversary = std::make_shared<runtime::TwoFaced>(0.02, 0.0005);
  net::UdpTimeServer liar(liar_cfg);
  liar.start();

  net::UdpServerConfig victim_cfg;
  victim_cfg.id = 101;
  victim_cfg.algo = core::SyncAlgorithm::kNone;
  victim_cfg.claimed_delta = 1e-6;
  victim_cfg.initial_error = 0.0005;
  victim_cfg.chaos.enabled = true;  // armed purely for crash control
  net::UdpTimeServer victim(victim_cfg);
  victim.start();

  std::vector<std::unique_ptr<net::UdpTimeServer>> learners;
  for (int i = 0; i < kLearners; ++i) {
    net::UdpServerConfig cfg;
    cfg.id = static_cast<std::uint32_t>(i);
    cfg.algo = core::SyncAlgorithm::kMM;
    cfg.claimed_delta = 1e-4;
    cfg.initial_error = 0.02;
    cfg.initial_offset = core::Offset{0.002 * (i - 1)};
    cfg.poll_period = kPoll;
    cfg.reply_timeout = kReplyWindow;
    cfg.health.enabled = true;
    cfg.health.quarantine_after = 3;
    cfg.chaos.drop = 0.1;
    cfg.chaos.duplicate = 0.1;
    cfg.chaos.delay = 0.1;
    cfg.chaos.delay_hi = kSpike;
    cfg.chaos.seed = 0x0DD + static_cast<std::uint64_t>(i);
    learners.push_back(std::make_unique<net::UdpTimeServer>(cfg));
  }
  // Full mesh among the learners, everyone also polling liar and victim.
  for (int i = 0; i < kLearners; ++i) {
    std::vector<std::uint16_t> peers;
    for (int j = 0; j < kLearners; ++j) {
      if (j != i) peers.push_back(learners[j]->port());
    }
    peers.push_back(liar.port());
    peers.push_back(victim.port());
    learners[i]->set_peers(peers);
  }
  for (auto& l : learners) l->start();

  // Converge under chaos; long enough for 3 consecutive liar rounds.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  // Peer engine ids: learner i's peer list is [other learners..., liar,
  // victim], so liar/victim sit at indices kLearners-1 and kLearners.
  const ServerId liar_id = net::UdpTimeServer::peer_engine_id(kLearners - 1);
  const ServerId victim_id = net::UdpTimeServer::peer_engine_id(kLearners);

  for (int i = 0; i < kLearners; ++i) {
    EXPECT_EQ(learners[i]->peer_state(liar_id),
              service::PeerState::kQuarantined)
        << "learner " << i;
  }

  // Crash-stop the victim; learners must walk it to dead and back off.
  victim.set_crashed(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  std::uint64_t probes = 0, suppressed = 0, deaths = 0;
  for (int i = 0; i < kLearners; ++i) {
    EXPECT_EQ(learners[i]->peer_state(victim_id), service::PeerState::kDead)
        << "learner " << i;
    const auto c = learners[i]->counters();
    probes += c.probes_sent;
    suppressed += c.polls_suppressed;
    deaths += c.peer_deaths;
  }
  EXPECT_GT(deaths, 0u);
  EXPECT_GT(probes, 0u);
  EXPECT_GT(suppressed, 0u);
  EXPECT_LT(probes, suppressed);

  // Restart: a probe reply must heal the victim back to healthy.  Wait on
  // protocol progress instead of a fixed time.  Every learner holds the
  // victim dead and probes it on backoff, at least once every
  // backoff_max + jitter * backoff_max = 8 + 2 = 10 rounds
  // (PeerHealth::should_poll).  A probe heals unless the learner's chaos
  // drops the request or the reply (drop 0.1 each way; delay spikes of at
  // most kSpike stay inside the reply window), so one misses with
  // p = 1 - 0.9^2 = 0.19.  K = 10 probes all miss with 0.19^10 = 6.1e-8,
  // so any of the four learners does with 2.5e-7 < 1e-6.  The wait counts
  // rounds, kRoundsPerProbe per probe, rather than probes_sent: that
  // counter also counts probes to learners the chaos drop briefly killed.
  constexpr std::uint64_t kProbes = 10;
  constexpr std::uint64_t kRoundsPerProbe = 10;
  victim.set_crashed(false);
  std::vector<std::uint64_t> rounds_at_restart;
  for (auto& l : learners) rounds_at_restart.push_back(l->counters().rounds);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    bool settled = true;
    for (int i = 0; i < kLearners; ++i) {
      const bool healed = learners[i]->peer_state(victim_id) ==
                          service::PeerState::kHealthy;
      const std::uint64_t rounds =
          learners[i]->counters().rounds - rounds_at_restart[i];
      settled = settled && (healed || rounds >= kProbes * kRoundsPerProbe);
    }
    if (settled || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int i = 0; i < kLearners; ++i) {
    EXPECT_EQ(learners[i]->peer_state(victim_id),
              service::PeerState::kHealthy)
        << "learner " << i;
  }

  // Correctness and the Theorem 3 bound on the live well-behaved servers.
  const double xi = 2.0 * (kReplyWindow / 3.0 + kSpike);
  core::Duration e_min{1e9};
  for (auto& l : learners) {
    e_min = std::min<core::Duration>(e_min, l->current_error());
  }
  for (int i = 0; i < kLearners; ++i) {
    EXPECT_LE(std::abs(learners[i]->true_offset().seconds()),
              learners[i]->current_error().seconds() + 1e-9)
        << "learner " << i;
    for (int j = i + 1; j < kLearners; ++j) {
      const double asym = std::abs(learners[i]->true_offset().seconds() -
                                   learners[j]->true_offset().seconds());
      EXPECT_LT(asym,
                core::mm_asynchronism_bound(e_min, xi, 1e-4, 1e-4, kPoll)
                    .seconds())
          << i << " vs " << j;
    }
  }

  // Ledger sanity: thread timing perturbs sequencing, but every copy is
  // accounted for - anything not yet forwarded/dropped is a delayed copy
  // still in flight.
  for (int i = 0; i < kLearners; ++i) {
    const auto s = learners[i]->fault_stats();
    EXPECT_GT(s.dropped_loss, 0u) << "learner " << i;
    EXPECT_GT(s.duplicated, 0u) << "learner " << i;
    EXPECT_GT(s.delayed, 0u) << "learner " << i;
    const auto entered = s.outbound + s.inbound + s.duplicated;
    const auto settled = s.forwarded + s.dropped_loss + s.dropped_partition +
                         s.dropped_crash;
    EXPECT_GE(entered, settled) << "learner " << i;
    EXPECT_LE(entered - settled, s.delayed) << "learner " << i;
  }

  // The liar's strategy rewrote its responses, destination-dependently,
  // without minting or losing copies.
  {
    const auto s = liar.fault_stats();
    EXPECT_GT(s.forged, 0u);
    EXPECT_GT(s.equivocations, 0u);
    EXPECT_LE(s.equivocations, s.forged);
    EXPECT_LE(s.forged, s.outbound);
    const auto entered = s.outbound + s.inbound + s.duplicated;
    const auto settled = s.forwarded + s.dropped_loss + s.dropped_partition +
                         s.dropped_crash;
    EXPECT_GE(entered, settled);
    EXPECT_LE(entered - settled, s.delayed);
  }

  for (auto& l : learners) l->stop();
  liar.stop();
  victim.stop();
}

}  // namespace
}  // namespace mtds
