// Helpers of the raccd-sim host benchmark that carry no timing of their own:
// run-to-run statistics, metric-name validation, the exact per-layer counts
// read from SimStats, the stats digest, and the in-memory span recorder with
// its Chrome Trace Event writer. perfbench_selftest checks every one of them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "raccd/common/format.hpp"
#include "raccd/sim/stats.hpp"

namespace perfbench {

// -- Statistics ---------------------------------------------------------------

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the spreads this benchmark prints match the ones its acceptance check
/// takes over whole runs.
[[nodiscard]] inline std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0]};
  const long m = ld + 1;
  double q[2] = {0.0, 0.0};
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) / 4.0;
  }
  return {q[0], q[1]};
}

// -- Metric names -------------------------------------------------------------

/// A metric name: 1..64 letters, digits, '_', '.', '-', starting with a
/// letter or digit.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// A unit: 1..16 letters, digits, '_', '/', '%', '.', '-'.
[[nodiscard]] inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// -- Exact per-layer counts ---------------------------------------------------

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// The per-layer counts the simulator itself reports, read from one run's
/// SimStats. They repeat exactly for a given spec, so they compare two
/// commits exactly; a count that does not apply to the workload reads 0.
[[nodiscard]] inline std::vector<Metric> layer_counts(const raccd::SimStats& s) {
  const raccd::FabricStats& f = s.fabric;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double nc = d(f.nc_reads + f.nc_writes);
  const double p99 = std::isnan(s.service.e2e.p99) ? 0.0 : s.service.e2e.p99;
  return {
      {"sim.tasks", d(s.tasks), "count"},
      {"sim.cycles", d(s.cycles), "cycles"},
      {"runtime.edges", d(s.edges), "count"},
      {"core.ncrt_hit_ratio", ratio(d(s.ncrt.hits), d(s.ncrt.lookups)), "frac"},
      {"modes.register_cycles", d(s.register_cycles), "cycles"},
      {"modes.flushed_nc_lines", d(s.flushed_nc_lines), "count"},
      {"tlb.miss_ratio", ratio(d(s.tlb.misses), d(s.tlb.lookups)), "frac"},
      {"coherence.dir_accesses", d(f.dir_accesses), "count"},
      {"coherence.dir_evictions", d(f.dir_evictions), "count"},
      {"coherence.dir_recall_msgs", d(f.dir_recall_msgs), "count"},
      {"coherence.nc_frac", ratio(nc, nc + d(f.coh_reads + f.coh_writes)), "frac"},
      {"cache.l1_hit_ratio", ratio(d(f.l1_hits), d(f.l1_accesses)), "frac"},
      {"cache.llc_hit_ratio", f.llc_hit_ratio(), "frac"},
      {"dram.requests", d(f.mem_reads + f.mem_writes), "count"},
      {"dram.row_hit_ratio", f.dram_row_hit_ratio(), "frac"},
      {"dram.queue_wait_cycles", d(f.dram_queue_wait_cycles), "cycles"},
      {"noc.flit_hops", d(s.noc.total_flit_hops()), "count"},
      {"noc.cross_socket_frac",
       ratio(d(s.noc.cross_socket.flit_hops), d(s.noc.total_flit_hops())), "frac"},
      {"service.requests", d(s.service.requests), "count"},
      {"service.e2e_p99_cycles", p99, "cycles"},
  };
}

/// 64-bit FNV-1a over a text (stats digests: two commits whose simulated
/// statistics are byte-identical print the same digest).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// -- Spans --------------------------------------------------------------------

/// Host-time spans kept in memory and written as Chrome Trace Event JSON at
/// the end of the traced run: one track (tid) per layer, complete ("X")
/// events in microseconds since the recorder was created.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double dur_us = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  /// Open a span; returns its index for end().
  int begin(std::string name, std::string layer) {
    Span s{std::move(name), std::move(layer), now_us(), 0.0, open_.empty() ? -1 : open_.back()};
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Close the innermost open span (which must be `id`); returns its seconds.
  double end(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.dur_us = now_us() - s.start_us;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return s.dur_us * 1e-6;
  }
  /// Time `fn` as one span; returns its seconds.
  template <typename Fn>
  double time(std::string name, std::string layer, Fn&& fn) {
    const int id = begin(std::move(name), std::move(layer));
    fn();
    return end(id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Span duration minus the durations of its direct children.
  [[nodiscard]] double self_us(std::size_t i) const {
    double child = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(i)) child += s.dur_us;
    }
    return spans_.at(i).dur_us - child;
  }

  /// Self time summed per layer, in first-seen layer order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_us_by_layer() const {
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == spans_[i].layer; });
      if (it == out.end()) it = out.insert(out.end(), {spans_[i].layer, 0.0});
      it->second += self_us(i);
    }
    return out;
  }

  /// Chrome Trace Event JSON: thread_name metadata naming each layer track,
  /// then one X event per span with its self time in args.
  [[nodiscard]] std::string chrome_json() const {
    std::vector<std::string> layers;
    for (const Span& s : spans_) {
      if (std::find(layers.begin(), layers.end(), s.layer) == layers.end()) {
        layers.push_back(s.layer);
      }
    }
    const auto tid = [&](const std::string& layer) {
      return std::find(layers.begin(), layers.end(), layer) - layers.begin();
    };
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"perfbench (host us)\"}}";
    for (const std::string& l : layers) {
      out += raccd::strprintf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%td,\"name\":\"thread_name\","
                              "\"args\":{\"name\":\"%s\"}}",
                              tid(l), l.c_str());
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += raccd::strprintf(
          ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%td,\"name\":\"%s\",\"cat\":\"%s\","
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f,\"parent\":%d}}",
          tid(s.layer), s.name.c_str(), s.layer.c_str(), s.start_us, s.dur_us, self_us(i),
          s.parent);
    }
    out += "\n]}\n";
    return out;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_).count();
  }

  using clock = std::chrono::steady_clock;
  clock::time_point origin_ = clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
