// perfbench: end-to-end and per-layer benchmark of the interval time
// service.  See perfbench/README.md.
//
//   perfbench --workload sim-fleet|sim-byz-gossip|serve --seed N
//             --seconds S --trace 0|1 [--quick] [--trace-out FILE]
//             [--source-id ID]
//   perfbench --emit-scenario sim-fleet|sim-byz-gossip --seed N [--quick]
//
// Prints an environment stamp, report lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"throughput", "op/s"}, {"p50_us", "us"},        {"p99_us", "us"},
      {"setup_s", "s"},       {"peak_rss_mb", "MB"},   {"max_error_ms", "ms"},
      {"max_async_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"sim.sharded_engine.windows", "count"},
      {"sim.sharded_engine.events_per_window", "count"},
      {"sim.sharded_engine.us_per_window", "us"},
      {"sim.sharded_engine.overhead_s", "s"},
      {"sim.network.sent", "count"},
      {"sim.network.delivered", "count"},
      {"sim.network.dropped", "count"},
      {"sim.network.delivered_per_s", "1/s"},
      {"sim.event_queue.ns_per_event", "ns"},
      {"service.time_service.step_ms_p50", "ms"},
      {"service.time_service.step_ms_p99", "ms"},
      {"service.protocol_engine.rounds", "count"},
      {"service.protocol_engine.replies_per_round", "ratio"},
      {"service.protocol_engine.resets_per_round", "ratio"},
      {"service.protocol_engine.gossip_received", "count"},
      {"service.protocol_engine.gossip_convictions", "count"},
      {"service.protocol_engine.quarantines", "count"},
      {"service.protocol_engine.byzantine_suspects", "count"},
      {"core.marzullo.ns_per_call", "ns"},
      {"core.marzullo.share", "frac"},
      {"core.byz_sync.ns_per_call", "ns"},
      {"core.byz_sync.share", "frac"},
      {"net.udp_socket.client_sockets", "count"},
      {"net.udp_socket.send_batch_us", "us"},
      {"net.udp_socket.recv_batch_us", "us"},
      {"net.udp_socket.recv_fill", "count"},
      {"net.protocol.encode_ns", "ns"},
      {"net.protocol.decode_ns", "ns"},
      {"net.serving_plane.served", "count"},
      {"net.serving_plane.loss_frac", "frac"},
      {"net.serving_plane.serve_ns_per_datagram", "ns"},
      {"util.seqlock.read_ns_idle", "ns"},
      {"util.seqlock.read_ns_contended", "ns"},
      {"util.seqlock.publishes", "count"},
      {"util.seqlock.reply_regressions", "count"},
      {"runtime.udp_runtime.rounds_per_s", "1/s"},
      {"runtime.udp_runtime.replies_per_request", "ratio"},
      {"trace.overhead_frac", "frac"},
  };
  return kMetrics;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--quick] [--trace-out FILE] "
               "[--source-id ID]\n       perfbench --emit-scenario W --seed N "
               "[--quick]\n",
               why);
  std::exit(2);
}

bool sim_kind(const std::string& name, SimKind& kind) {
  if (name == "sim-fleet") {
    kind = SimKind::kFleet;
    return true;
  }
  if (name == "sim-byz-gossip") {
    kind = SimKind::kByzGossip;
    return true;
  }
  return false;
}

std::string result_json(const RunResult& r, const std::vector<MetricSpec>& want) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& m : want) {
    const auto it = r.metrics.find(m.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second.value;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "\"" : ", \"";
    out += m.name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string emit;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--source-id") {
      opt.source_id = value();
    } else if (arg == "--emit-scenario") {
      emit = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    SimKind kind{};
    if (!emit.empty()) {
      if (!have_seed || !sim_kind(emit, kind)) usage("bad --emit-scenario");
      opt.workload = emit;
      std::fputs(scenario_text(opt, kind).c_str(), stdout);
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace || opt.seconds <= 0) {
      usage("--seed, --seconds (> 0) and --trace are required");
    }

    Tracer tracer(opt.trace);
    RunResult result;
    if (sim_kind(opt.workload, kind)) {
      result = run_sim(opt, kind, tracer);
    } else if (opt.workload == "serve") {
      result = run_serve(opt, tracer);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }

    const std::string env = environment_json(opt);
    std::printf("env %s\n", env.c_str());
    for (const auto& note : result.notes) std::printf("note %s\n", note.c_str());
    const auto& want = opt.trace ? per_layer_metrics() : end_to_end_metrics();
    for (const auto& m : want) {
      const auto it = result.metrics.find(m.name);
      std::printf("metric %-44s %.6g %s\n", m.name,
                  it == result.metrics.end() ? 0.0 : it->second.value, m.unit);
    }
    // fail_frac is failed / attempted of the result line below.
    std::printf("metric %-44s %.6g frac (%llu of %llu)\n", "fail_frac",
                result.attempted > 0 ? static_cast<double>(result.failed) /
                                           static_cast<double>(result.attempted)
                                     : 0.0,
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    if (opt.trace && !opt.trace_out.empty() &&
        !tracer.write_json(opt.trace_out, env)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
    std::printf("%s\n", result_json(result, want).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
