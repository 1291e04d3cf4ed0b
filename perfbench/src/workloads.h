// The three workloads.  Each runs for opt.seconds, checks the program's
// outputs, and fills the end-to-end metrics (untraced) or the per-layer
// metrics (traced).  Every workload reports the same metric set, listed
// once (main.cc) in the order of BENCHMARK.json; a per-layer metric of a
// layer the workload does not exercise reads 0.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics, as listed in BENCHMARK.json.
const std::vector<MetricSpec>& end_to_end_metrics();
// Per-layer metrics, as listed in BENCHMARK.json.
const std::vector<MetricSpec>& per_layer_metrics();

enum class SimKind { kFleet, kByzGossip };

RunResult run_sim(const Options& opt, SimKind kind, Tracer& tracer);
RunResult run_serve(const Options& opt, Tracer& tracer);

// The generated scenario text for a sim workload (self-check: one seed,
// byte-identical text).
std::string scenario_text(const Options& opt, SimKind kind);

}  // namespace perfbench
