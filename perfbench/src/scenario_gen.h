// Seed -> scenario text for the simulator workloads.
//
// The program under test receives only the generated DSL text (parsed by
// service::parse_scenario); everything random about a workload is drawn
// here from a splitmix64 stream, so one seed always yields byte-identical
// text on every machine.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

// Facts about a generated scenario the checks need (the honest set and the
// corrupt-state exclusion window).  Ids are kInvalid when absent.
struct ScenarioFacts {
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  std::uint32_t servers = 0;
  std::uint32_t adversary = kInvalid;  // twofaced liar, never honest
  std::uint32_t crashed = kInvalid;    // crash-stopped and restarted
  std::uint32_t corrupted = kInvalid;  // corrupt-state victim
  double corrupt_at = 0.0;
  double restart_at = 0.0;
  double tau = 0.0;                    // longest poll period of any server
  double horizon = 0.0;
  double checkpoint = 1.0;             // simulated seconds between checks
};

struct GeneratedScenario {
  std::string text;
  ScenarioFacts facts;
};

// sim-fleet: `servers` servers on a ring cycling MM/IM/IMFT, delay
// [0.002, 0.01], tau 30, 16 shards on 4 threads.
GeneratedScenario make_fleet(std::uint64_t seed, std::uint32_t servers,
                             double horizon);

// sim-byz-gossip: `servers` BYZ servers on a full topology with gossip,
// peer health with quarantine/release/probation, one twofaced adversary
// and the timeline loss 0.1 -> crash -> corrupt-state -> restart -> loss 0.
// Default (unsharded) engine.
GeneratedScenario make_byz_gossip(std::uint64_t seed, std::uint32_t servers,
                                  double horizon);

}  // namespace perfbench
