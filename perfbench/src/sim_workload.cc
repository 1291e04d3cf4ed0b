// The simulator workloads, sim-fleet and sim-byz-gossip.
//
// One episode parses the seed's scenario text and builds the TimeService
// (timed as set-up), then advances it one simulated second per
// ScenarioRunner::run call (timed), checkpointing the honest running
// servers between calls (not timed).  Episodes repeat until the run's wall
// budget is spent, with a batch of set-ups alone after each, so set-up is
// sampled across the whole run as the episodes are.  The simulation is
// deterministic, so every episode must reproduce the first one's
// observations exactly; that is itself checked.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "layers.h"
#include "scenario_gen.h"
#include "service/report.h"
#include "service/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mtds::service::ScenarioRunner;
using mtds::service::TimeService;

constexpr double kStep = 1.0;  // simulated seconds per timed step
// Set-ups besides the episodes' own, after each episode: at least this
// many, and for at least this long, so even a sub-millisecond set-up gets
// a steady median.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.1;

GeneratedScenario generate(const Options& opt, SimKind kind) {
  if (kind == SimKind::kFleet) {
    return opt.quick ? make_fleet(opt.seed, 600, 60.0)
                     : make_fleet(opt.seed, 10'000, 300.0);
  }
  return opt.quick ? make_byz_gossip(opt.seed, 16, 60.0)
                   : make_byz_gossip(opt.seed, 64, 150.0);
}

// A server is checked at t unless it is the adversary, or the corrupt-state
// victim inside its recovery allowance (core/byz_sync.h: re-convergence
// within K = 3 rounds; one more round covers the fault landing mid-round).
bool honest(const ScenarioFacts& f, std::uint32_t id, double t) {
  if (id == f.adversary) return false;
  if (id == f.corrupted && t >= f.corrupt_at &&
      t <= f.corrupt_at + 4.0 * f.tau) {
    return false;
  }
  return true;
}

// The maxima of error and asynchronism describe servers that are in sync:
// honest, and not the crashed server during the two rounds after its
// restart, when its clock is still where the crash left it (its interval
// is checked all the same).
bool settled(const ScenarioFacts& f, std::uint32_t id, double t) {
  if (id == f.crashed && t >= f.restart_at && t <= f.restart_at + 2.0 * f.tau) {
    return false;
  }
  return honest(f, id, t);
}

// What one episode observed.  Everything but the timings is a function of
// the scenario alone and must repeat exactly across episodes.
struct Episode {
  double setup_s = 0.0;
  double run_s = 0.0;               // sum of timed steps
  std::vector<double> step_s;       // per-step wall time
  double max_error = 0.0;           // seconds
  double max_async = 0.0;           // seconds
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t windows = 0;        // sharded engine windows (traced)
  mtds::sim::NetworkStats net;
  mtds::service::ServerCounters sum;
  std::uint64_t marzullo_calls = 0;  // rounds on IMFT servers
  std::uint64_t byz_calls = 0;       // rounds on BYZ servers

  bool same_observations(const Episode& o) const {
    return max_error == o.max_error && max_async == o.max_async &&
           checks == o.checks && check_failures == o.check_failures &&
           net.sent == o.net.sent && net.delivered == o.net.delivered &&
           sum.rounds == o.sum.rounds && sum.resets == o.sum.resets;
  }
};

void add_counters(mtds::service::ServerCounters& a,
                  const mtds::service::ServerCounters& b) {
  a.rounds += b.rounds;
  a.requests_sent += b.requests_sent;
  a.replies_received += b.replies_received;
  a.resets += b.resets;
  a.quarantines += b.quarantines;
  a.byzantine_suspects += b.byzantine_suspects;
  a.gossip_received += b.gossip_received;
  a.gossip_convictions += b.gossip_convictions;
}

void checkpoint(TimeService& service, const ScenarioFacts& facts,
                Episode& ep) {
  const auto t = service.now();
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < service.size(); ++i) {
    auto& server = service.server(i);
    if (!server.running()) continue;
    if (!honest(facts, static_cast<std::uint32_t>(i), t.seconds())) continue;
    ++ep.checks;
    if (!server.correct(t)) ++ep.check_failures;
    if (!settled(facts, static_cast<std::uint32_t>(i), t.seconds())) continue;
    ep.max_error = std::max(ep.max_error, server.current_error(t).seconds());
    const double c = server.read_clock(t).seconds();
    if (!any) {
      lo = hi = c;
      any = true;
    } else {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  ep.max_async = std::max(ep.max_async, hi - lo);
}

// Checks made once per run on the first episode's finished service: the trace-wide
// correctness sweep of build_report and, for the corrupt-state victim, the
// K <= 3 re-convergence contract.
void report_checks(TimeService& service, const ScenarioFacts& facts,
                   RunResult& result) {
  const auto report = mtds::service::build_report(service);
  std::uint64_t violations = 0;
  for (const auto& v : report.correctness.violations) {
    if (honest(facts, v.server, v.t.seconds())) ++violations;
  }
  result.attempted += report.correctness.samples_checked;
  result.failed += violations;
  result.notes.push_back(
      "build_report correctness: " +
      std::to_string(report.correctness.samples_checked) + " samples, " +
      std::to_string(violations) + " honest violations (" +
      std::to_string(report.correctness.violations.size()) + " in total)");
  if (facts.corrupted != ScenarioFacts::kInvalid) {
    const auto& c = service.server(facts.corrupted).counters();
    result.check(c.state_corruptions == 1);
    result.check(c.recovery_rounds >= 1 && c.recovery_rounds <= 3);
    result.notes.push_back(
        "corrupt-state victim S" + std::to_string(facts.corrupted) +
        ": recovery_rounds " + std::to_string(c.recovery_rounds));
  }
}

Episode run_episode(const std::string& text, const ScenarioFacts& facts,
                    Tracer& tracer, bool default_engine, RunResult* report) {
  Episode ep;
  ScopedSpan episode_span(tracer, "episode");
  const double t0 = wall_seconds();
  std::unique_ptr<ScenarioRunner> runner;
  {
    ScopedSpan span(tracer, "setup");
    auto scenario = mtds::service::parse_scenario(text);
    if (default_engine) scenario.config.sim_shards = 0;
    runner = std::make_unique<ScenarioRunner>(std::move(scenario));
  }
  ep.setup_s = wall_seconds() - t0;
  TimeService& service = runner->service();
  auto* engine = service.sharded_engine();

  const auto steps = static_cast<std::size_t>(facts.horizon / kStep);
  const auto per_checkpoint =
      std::max<std::size_t>(1, static_cast<std::size_t>(facts.checkpoint / kStep));
  ep.step_s.reserve(steps);
  for (std::size_t k = 1; k <= steps; ++k) {
    const double w0 = wall_seconds();
    {
      ScopedSpan span(tracer, "time_service.run_until");
      runner->run(static_cast<double>(k) * kStep);
    }
    const double dt = wall_seconds() - w0;
    ep.step_s.push_back(dt);
    ep.run_s += dt;
    if (tracer.enabled() && engine != nullptr) {
      ep.windows += engine->last_windows();
    }
    // Checkpoints start after two rounds, so the maxima describe the
    // protocol's work rather than the generated initial conditions.
    if (k % per_checkpoint == 0 && k * kStep >= 2.0 * facts.tau) {
      ScopedSpan span(tracer, "checkpoint");
      checkpoint(service, facts, ep);
    }
  }

  ep.net = service.network().stats();
  for (std::size_t i = 0; i < service.size(); ++i) {
    const auto& server = service.server(i);
    const auto& c = server.counters();
    add_counters(ep.sum, c);
    if (server.spec().algo == mtds::core::SyncAlgorithm::kIMFT) {
      ep.marzullo_calls += c.rounds;
    } else if (server.spec().algo == mtds::core::SyncAlgorithm::kBYZ) {
      ep.byz_calls += c.rounds;
    }
  }
  if (report != nullptr) report_checks(service, facts, *report);
  return ep;
}

// Set-up alone (parse + build, then tear down untimed), kSetupRepeats
// times and for kSetupSeconds, appended to `out`: the episodes give few
// set-up samples.
void time_setups(const std::string& text, std::vector<double>& out) {
  const double start = wall_seconds();
  for (std::size_t n = 0; n < kSetupRepeats || wall_seconds() - start < kSetupSeconds;
       ++n) {
    const double t0 = wall_seconds();
    auto runner = std::make_unique<ScenarioRunner>(mtds::service::parse_scenario(text));
    out.push_back(wall_seconds() - t0);
  }
}

// Runs episodes until `budget` wall seconds are spent (at least one).
// The first episode's service also gets the report checks when `report`
// is given.  With `setups`, each episode is followed by a batch of
// set-ups alone, and every set-up time goes there.
std::vector<Episode> run_episodes(const GeneratedScenario& gen, double budget,
                                  Tracer& tracer, bool default_engine,
                                  RunResult* report = nullptr,
                                  std::vector<double>* setups = nullptr) {
  std::vector<Episode> episodes;
  const double start = wall_seconds();
  do {
    episodes.push_back(run_episode(gen.text, gen.facts, tracer, default_engine,
                                   episodes.empty() ? report : nullptr));
    if (setups != nullptr) {
      setups->push_back(episodes.back().setup_s);
      time_setups(gen.text, *setups);
    }
  } while (wall_seconds() - start < budget);
  return episodes;
}

// A per-episode figure as the median over the run's episodes: every
// episode does identical work (checked), so they differ only by what else
// the machine was doing.
template <typename F>
double over_episodes(const std::vector<Episode>& eps, F f) {
  std::vector<double> v;
  for (const auto& e : eps) v.push_back(f(e));
  return median(v);
}

double throughput(const std::vector<Episode>& eps, double horizon) {
  return over_episodes(eps, [&](const Episode& e) { return horizon / e.run_s; });
}

// Percentile over the steps of a step's typical wall time.  Step k does
// the same work in every episode, so its typical time is the median of its
// executions: a host stall that hits one execution drops out, a step that
// is slow in most episodes stays.  (`pooled_step_us` keeps every
// execution, stalls included.)
double step_us(const std::vector<Episode>& eps, double q) {
  std::vector<double> typical(eps.front().step_s.size());
  std::vector<double> runs(eps.size());
  for (std::size_t k = 0; k < typical.size(); ++k) {
    for (std::size_t e = 0; e < eps.size(); ++e) runs[e] = eps[e].step_s[k];
    typical[k] = median(runs);
  }
  return quantile(typical, q) * 1e6;
}

// Percentile of a step's wall time over every step of every episode.
double pooled_step_us(const std::vector<Episode>& eps, double q) {
  std::vector<double> all;
  for (const auto& e : eps) all.insert(all.end(), e.step_s.begin(), e.step_s.end());
  return quantile(all, q) * 1e6;
}

void check_episodes(const std::vector<Episode>& eps, RunResult& result) {
  for (const auto& e : eps) {
    result.attempted += e.checks;
    result.failed += e.check_failures;
    // Determinism: every episode replays the first exactly.
    result.check(e.same_observations(eps.front()));
  }
}

}  // namespace

std::string scenario_text(const Options& opt, SimKind kind) {
  return generate(opt, kind).text;
}

RunResult run_sim(const Options& opt, SimKind kind, Tracer& tracer) {
  RunResult result;
  const GeneratedScenario gen = generate(opt, kind);
  const double horizon = gen.facts.horizon;
  Tracer untraced(false);

  if (!opt.trace) {
    std::vector<double> setup;
    const auto eps =
        run_episodes(gen, opt.seconds, untraced, false, &result, &setup);
    check_episodes(eps, result);
    result.set("throughput", throughput(eps, horizon), "op/s");
    result.set("p50_us", step_us(eps, 0.50), "us");
    result.set("p99_us", step_us(eps, 0.99), "us");
    result.set("setup_s", median(setup), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("max_error_ms", eps.front().max_error * 1e3, "ms");
    result.set("max_async_ms", eps.front().max_async * 1e3, "ms");
    std::string per_episode;
    for (const auto& e : eps) {
      per_episode += ' ';
      per_episode += std::to_string(horizon / e.run_s).substr(0, 6);
    }
    result.notes.push_back("throughput per episode:" + per_episode);
    result.notes.push_back(
        "episodes " + std::to_string(eps.size()) + ", set-ups " +
        std::to_string(setup.size()) + ", " +
        std::to_string(eps.front().step_s.size()) +
        " steps of 1 sim-s each; medians over episodes");
    return result;
  }

  // Traced run: the same work untraced, then traced, for half the budget
  // each; the difference is the tracing overhead.  Times come from the
  // untraced half, counts from the traced one (they are deterministic).
  const auto plain = run_episodes(gen, opt.seconds / 2, untraced, false);
  const auto eps = run_episodes(gen, opt.seconds / 2, tracer, false);
  check_episodes(plain, result);
  check_episodes(eps, result);
  const Episode& e0 = eps.front();
  const double run_s = over_episodes(plain, [](const Episode& e) { return e.run_s; });

  for (const auto& m : per_layer_metrics()) result.set(m.name, 0.0, m.unit);

  result.set("service.time_service.step_ms_p50", pooled_step_us(eps, 0.50) * 1e-3,
             "ms");
  result.set("service.time_service.step_ms_p99", pooled_step_us(eps, 0.99) * 1e-3,
             "ms");

  if (e0.windows > 0) {
    // Default-engine reference on the same input: the sharded engine's
    // cost over the single-queue engine.
    const auto ref = run_episodes(gen, 0.0, untraced, true);
    result.set("sim.sharded_engine.windows", static_cast<double>(e0.windows),
               "count");
    result.set("sim.sharded_engine.events_per_window",
               static_cast<double>(e0.net.delivered) /
                   static_cast<double>(e0.windows),
               "count");
    result.set("sim.sharded_engine.us_per_window",
               run_s * 1e6 / static_cast<double>(e0.windows), "us");
    result.set("sim.sharded_engine.overhead_s", run_s - ref.front().run_s, "s");
    result.notes.push_back("default-engine reference: " +
                           std::to_string(ref.front().run_s) + " s vs sharded " +
                           std::to_string(run_s) + " s");
  }

  result.set("sim.network.sent", static_cast<double>(e0.net.sent), "count");
  result.set("sim.network.delivered", static_cast<double>(e0.net.delivered),
             "count");
  result.set("sim.network.dropped",
             static_cast<double>(e0.net.dropped_loss + e0.net.dropped_partition +
                                 e0.net.dropped_no_handler),
             "count");
  result.set("sim.network.delivered_per_s",
             static_cast<double>(e0.net.delivered) / run_s, "1/s");

  const double rounds = static_cast<double>(std::max<std::uint64_t>(1, e0.sum.rounds));
  result.set("service.protocol_engine.rounds", static_cast<double>(e0.sum.rounds),
             "count");
  result.set("service.protocol_engine.replies_per_round",
             static_cast<double>(e0.sum.replies_received) / rounds, "ratio");
  result.set("service.protocol_engine.resets_per_round",
             static_cast<double>(e0.sum.resets) / rounds, "ratio");
  result.set("service.protocol_engine.gossip_received",
             static_cast<double>(e0.sum.gossip_received), "count");
  result.set("service.protocol_engine.gossip_convictions",
             static_cast<double>(e0.sum.gossip_convictions), "count");
  result.set("service.protocol_engine.quarantines",
             static_cast<double>(e0.sum.quarantines), "count");
  result.set("service.protocol_engine.byzantine_suspects",
             static_cast<double>(e0.sum.byzantine_suspects), "count");

  // Replays at the workload's population: one timer per server, and the
  // readings a round sees (replies per round, plus the local interval for
  // Marzullo; every other server for BYZ, whose gossip fills in sources a
  // round has no first-hand reply from).
  result.set("sim.event_queue.ns_per_event",
             replay_event_queue_ns(gen.facts.servers, gen.facts.tau, opt.seed),
             "ns");
  const auto replies = static_cast<std::size_t>(
      std::lround(static_cast<double>(e0.sum.replies_received) / rounds));
  if (e0.marzullo_calls > 0) {
    const double ns = replay_marzullo_ns(replies + 1, opt.seed);
    result.set("core.marzullo.ns_per_call", ns, "ns");
    result.set("core.marzullo.share",
               ns * 1e-9 * static_cast<double>(e0.marzullo_calls) / run_s,
               "frac");
  }
  if (e0.byz_calls > 0) {
    const double ns = replay_byz_sync_ns(gen.facts.servers - 1, opt.seed);
    result.set("core.byz_sync.ns_per_call", ns, "ns");
    result.set("core.byz_sync.share",
               ns * 1e-9 * static_cast<double>(e0.byz_calls) / run_s, "frac");
  }

  const double plain_tp = throughput(plain, horizon);
  result.set("trace.overhead_frac",
             (plain_tp - throughput(eps, horizon)) / plain_tp, "frac");
  result.notes.push_back("untraced throughput " + std::to_string(plain_tp) +
                         " sim-s/s over " + std::to_string(plain.size()) +
                         " episodes; traced over " + std::to_string(eps.size()));
  return result;
}

}  // namespace perfbench
