// Shared plumbing for the perfbench workloads: options, the result record,
// order statistics, the span recorder and the machine stamp.
//
// Everything here lives outside the program under test.  The workloads reach
// the program only through its public headers; spans and counts are taken
// around those calls, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;        // scaled-down inputs for the self-check
  std::string trace_out;     // where the traced run writes its spans
  std::string source_id;     // git sha or source-tree hash, from run.py
};

// Monotonic wall clock in seconds (steady_clock).
inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// What a workload run hands back to main(): the correctness tally, the
// metrics (end-to-end or per-layer, by mode) and free-form report lines
// printed before the result.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Order statistics over a copy of `v` (linear interpolation between ranks).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// A fixed-memory latency histogram with log-spaced buckets 0.1% wide from
// 1 us to 100 ms (values outside land in the end buckets).  Fixed size, so
// the load generator's memory does not grow with the request rate.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add_ns(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  // Value in microseconds at quantile q (geometric bucket midpoint).
  double quantile_us(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

// Span recorder.  A span is (name, start, end, parent); all spans of one
// benchmark run share the run as their trace id.  Spans are kept in memory
// (up to a cap, after which only the per-name totals keep counting) and
// written as JSON when the run ends.  When disabled every call is a
// branch on `enabled()`.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
  };
  struct Totals {
    std::uint64_t count = 0;
    double seconds = 0.0;
    double child_seconds = 0.0;  // covered by direct child spans
  };

  explicit Tracer(bool enabled, std::size_t cap = 1'000'000);

  bool enabled() const { return enabled_; }
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  // Records a finished span timed on another thread (a load thread), as a
  // child of the innermost open span, if any.
  void add(const char* name, double start, double end);

  // Writes the spans and, per name, the count, total and self time (total
  // minus the part covered by direct child spans).
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  std::size_t cap_;
  std::vector<Span> spans_;
  struct Open {
    const char* name;
    double start;
    std::uint32_t id;
    std::uint32_t parent;
  };
  std::vector<Open> stack_;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::map<std::string, Totals> totals_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// Machine and build stamp: nproc, CPU model, governor, build type,
// compiler and source id, as one JSON object.
std::string environment_json(const Options& opt);

}  // namespace perfbench
