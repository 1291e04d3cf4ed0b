// Standalone layer replays for the traced run.
//
// Some layers are too fine-grained to time from outside a live run: one
// Marzullo sweep or one seqlock read is tens of nanoseconds.  Each replay
// drives that layer's public API alone, at the population the workload
// gave it (timer count, readings per round, publish rate), and reports
// the median of several timed repetitions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

// sim::EventQueue holding `timers` self-rescheduling timers with period
// `tau`: ns per executed event.
double replay_event_queue_ns(std::size_t timers, double tau,
                             std::uint64_t seed);

// core::best_intersection over `readings` intervals (scratch overload):
// ns per call.
double replay_marzullo_ns(std::size_t readings, std::uint64_t seed);

// core::ByzantineSync::on_round over `readings` readings: ns per call.
double replay_byz_sync_ns(std::size_t readings, std::uint64_t seed);

// net::encode(ClientTimeRequest) and net::decode_client_reply: ns each.
struct ProtocolCosts {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};
ProtocolCosts replay_protocol();

// net::serve_client_batch over a received batch of `batch` requests:
// ns per datagram.
double replay_serve_batch_ns(std::size_t batch);

// util::Seqlock<ClockSnapshot>::read, with no writer and with a writer
// publishing at `publishes_per_s`: ns per read.
struct SeqlockCosts {
  double idle_ns = 0.0;
  double contended_ns = 0.0;
};
SeqlockCosts replay_seqlock(double publishes_per_s);

}  // namespace perfbench
