#include "scenario_gen.h"

#include <cstdio>

namespace perfbench {
namespace {

// splitmix64: tiny, portable, and the same sequence everywhere.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi), quantised to 2^-53.
  double uniform(double lo, double hi) {
    const double u =
        static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    return lo + (hi - lo) * u;
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

// Fixed-precision rendering: the text, not the double, is the input, so
// the same seed gives the same bytes whatever printf's defaults are.
std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// One server with drift in [-0.9, 0.9] * delta (or `fixed_drift` times
// delta when given), error in [min_error, 0.02] and an offset inside it.
// `drawn`, when given, receives the drift factor this line used.
std::string server_line(SplitMix& rng, const char* algo, double delta,
                        double tau, double min_error, const char* extra,
                        const double* fixed_drift = nullptr,
                        double* drawn = nullptr) {
  const double draw = rng.uniform(-0.9, 0.9);
  const double factor = fixed_drift != nullptr ? *fixed_drift : draw;
  if (drawn != nullptr) *drawn = factor;
  const double drift = factor * delta;
  const double error = rng.uniform(min_error, 0.02);
  const double offset = rng.uniform(-0.5, 0.5) * error;
  std::string line = "server";
  if (algo != nullptr) line += std::string(" algo=") + algo;
  line += " delta=" + fmt("%.3e", delta) + " drift=" + fmt("%.6e", drift) +
          " error=" + fmt("%.6f", error) + " offset=" + fmt("%.6f", offset) +
          " tau=" + fmt("%.3f", tau);
  if (extra != nullptr) line += extra;
  return line + "\n";
}

}  // namespace

GeneratedScenario make_fleet(std::uint64_t seed, std::uint32_t servers,
                             double horizon) {
  SplitMix rng(seed ^ 0xF1EE7ull);
  GeneratedScenario out;
  ScenarioFacts& f = out.facts;
  f.servers = servers;
  f.tau = 30.0;
  f.horizon = horizon;
  f.checkpoint = 10.0;

  std::string& s = out.text;
  s += "# sim-fleet (perfbench), seed " + std::to_string(seed) + "\n";
  s += "seed " + std::to_string(rng.next() % 1000000007ull) + "\n";
  s += "delay 0.002 0.01\n";
  s += "sample 50\n";
  s += "shards 16\n";
  s += "threads 4\n";
  s += "topology ring\n";
  static const char* kAlgos[] = {"MM", "IM", "IMFT"};
  for (std::uint32_t i = 0; i < servers; ++i) {
    s += server_line(rng, kAlgos[i % 3], 1e-5, f.tau, 0.005, nullptr);
  }
  s += "run " + fmt("%g", horizon) + "\n";
  return out;
}

GeneratedScenario make_byz_gossip(std::uint64_t seed, std::uint32_t servers,
                                  double horizon) {
  SplitMix rng(seed ^ 0xB72ull);
  GeneratedScenario out;
  ScenarioFacts& f = out.facts;
  f.servers = servers;
  f.tau = 6.0;  // the longest poll period drawn below
  f.horizon = horizon;
  f.checkpoint = 1.0;

  // Three distinct roles drawn from the seed.
  f.adversary = rng.below(servers);
  do {
    f.crashed = rng.below(servers);
  } while (f.crashed == f.adversary);
  do {
    f.corrupted = rng.below(servers);
  } while (f.corrupted == f.adversary || f.corrupted == f.crashed);

  // Timeline at fixed fractions of the horizon, shifted as a whole by the
  // seed, so the crash always lasts 30% of the run.
  const double shift = rng.uniform(0.0, 2.0);
  const double loss_on = horizon * 0.13 + shift;
  const double crash_at = horizon * 0.27 + shift;
  f.corrupt_at = horizon * 0.40 + shift;
  f.restart_at = horizon * 0.57 + shift;
  const double loss_off = horizon * 0.70 + shift;

  std::string& s = out.text;
  s += "# sim-byz-gossip (perfbench), seed " + std::to_string(seed) + "\n";
  s += "seed " + std::to_string(rng.next() % 1000000007ull) + "\n";
  s += "delay 0.001 0.003\n";
  s += "sample 1\n";
  s += "topology full\n";
  s += "sync BYZ\n";
  s += "gossip on\n";
  // Drifts come in opposite pairs, so the fleet as a whole keeps time,
  // and the crashed server drifts at the fastest rate: how far its clock
  // has wandered from the fleet when it restarts is then a property of the
  // workload, not of the seed.
  const double fastest = 0.9;
  double pair = 0.0;
  for (std::uint32_t i = 0; i < servers; ++i) {
    const double mirrored = -pair;
    const double* fixed = i == f.crashed ? &fastest
                          : i % 2 == 1   ? &mirrored
                                         : nullptr;
    // Poll periods spread over [4, 6) s, so the servers' rounds drift out
    // of phase and every simulated second carries a similar load.
    const double tau = rng.uniform(4.0, f.tau);
    s += server_line(rng, nullptr, 2e-5, tau, 0.015,
                     " health=1 quarantine=3 release=4 probation=2", fixed,
                     &pair);
  }
  s += "adversary twofaced " + std::to_string(f.adversary) +
       " magnitude=0.02 error=0.005\n";
  s += "at " + fmt("%.3f", loss_on) + " loss 0.1\n";
  s += "at " + fmt("%.3f", crash_at) + " crash " +
       std::to_string(f.crashed) + "\n";
  s += "at " + fmt("%.3f", f.corrupt_at) + " corrupt-state " +
       std::to_string(f.corrupted) + "\n";
  s += "at " + fmt("%.3f", f.restart_at) + " restart " +
       std::to_string(f.crashed) + "\n";
  s += "at " + fmt("%.3f", loss_off) + " loss 0\n";
  s += "run " + fmt("%g", horizon) + "\n";
  return out;
}

}  // namespace perfbench
