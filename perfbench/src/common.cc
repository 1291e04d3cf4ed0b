#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of whatever process image exec'd this one (the Python launcher).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

constexpr double kHistLowNs = 1000.0;  // 1 us
constexpr double kHistStep = 1.001;    // 0.1% per bucket
const double kHistLogStep = std::log(kHistStep);
const std::size_t kHistBuckets =
    static_cast<std::size_t>(std::log(1e5) / kHistLogStep) + 2;  // to 100 ms

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::add_ns(std::int64_t ns) {
  ++count_;
  const double v = static_cast<double>(ns);
  std::size_t idx = 0;
  if (v > kHistLowNs) {
    idx = std::min(kHistBuckets - 1, static_cast<std::size_t>(
                                         std::log(v / kHistLowNs) / kHistLogStep));
  }
  ++buckets_[idx];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kHistBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < kHistBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) break;
  }
  return kHistLowNs * std::pow(kHistStep, static_cast<double>(i) + 0.5) / 1000.0;
}

Tracer::Tracer(bool enabled, std::size_t cap) : enabled_(enabled), cap_(cap) {
  if (enabled_) spans_.reserve(std::min<std::size_t>(cap_, 1 << 16));
}

std::uint32_t Tracer::begin(const char* name) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  const std::uint32_t id = next_id_++;
  stack_.push_back({name, wall_seconds(), id, parent});
  return id;
}

void Tracer::end(std::uint32_t id) {
  const double now = wall_seconds();
  // Spans nest strictly (RAII), so the span being closed is on top.
  if (stack_.empty() || stack_.back().id != id) return;
  const Open open = stack_.back();
  stack_.pop_back();
  Totals& t = totals_[open.name];
  ++t.count;
  t.seconds += now - open.start;
  if (!stack_.empty()) {
    totals_[stack_.back().name].child_seconds += now - open.start;
  }
  if (spans_.size() < cap_) {
    spans_.push_back({open.name, open.start, now, open.id, open.parent});
  } else {
    ++dropped_;
  }
}

void Tracer::add(const char* name, double start, double end) {
  if (!enabled_) return;
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  Totals& t = totals_[name];
  ++t.count;
  t.seconds += end - start;
  if (!stack_.empty()) totals_[stack_.back().name].child_seconds += end - start;
  if (spans_.size() < cap_) {
    spans_.push_back({name, start, end, next_id_++, parent});
  } else {
    ++dropped_;
  }
}

bool Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\": " << header << ",\n \"dropped_spans\": " << dropped_
      << ",\n \"totals\": {";
  bool first = true;
  for (const auto& [name, t] : totals_) {
    out << (first ? "" : ",") << "\n  \"" << name << "\": {\"count\": "
        << t.count << ", \"seconds\": " << t.seconds
        << ", \"self_seconds\": " << (t.seconds - t.child_seconds) << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  first = true;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                  "\"start\": %.9f, \"end\": %.9f}",
                  first ? "" : ",", s.name, s.id, s.parent, s.start, s.end);
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unknown";
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string environment_json(const Options& opt) {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << json_escape(cpu_model())
      << "\", \"governor\": \""
      << json_escape(read_first_line(
             "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << json_escape(__VERSION__)
      << "\", \"source_id\": \""
      << json_escape(opt.source_id.empty() ? "unknown" : opt.source_id)
      << "\", \"workload\": \"" << json_escape(opt.workload)
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"quick\": " << (opt.quick ? 1 : 0) << "}";
  return out.str();
}

}  // namespace perfbench
