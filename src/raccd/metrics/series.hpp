// Phase-resolved metric time-series (paper Fig. 8 plots directory occupancy
// *over time*, not just its time-average).
//
// StatSampler hooks into the Machine's discrete-event loop: every
// SeriesConfig::interval cycles it snapshots the live machine state (via a
// caller-supplied snapshot function) and evaluates a by-name metric
// selection into a Series. Memory is bounded: when the sample count reaches
// kSeriesMaxSamples the series decimates — every second sample is dropped
// and the effective interval doubles — so arbitrarily long runs keep
// full-run coverage at O(kSeriesMaxSamples) memory (DESIGN.md substitution #8).
//
// Sampling is deterministic: sample times derive only from simulated event
// times, so identical specs produce identical series (tested).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "raccd/metrics/metric_schema.hpp"
#include "raccd/sim/config.hpp"

namespace raccd {

/// StatSampler's ring bound: reaching it drops every second sample and
/// doubles the effective interval, so memory stays O(kSeriesMaxSamples) for
/// any run length.
inline constexpr std::uint32_t kSeriesMaxSamples = 4096;

class Series {
 public:
  struct Sample {
    Cycle t = 0;
    std::vector<double> v;  ///< one value per metric, in metric order
    [[nodiscard]] bool operator==(const Sample&) const = default;
  };

  Series() = default;
  Series(std::vector<std::string> metric_names, Cycle interval)
      : names_(std::move(metric_names)), interval_(interval) {}

  [[nodiscard]] const std::vector<std::string>& metric_names() const noexcept {
    return names_;
  }
  /// Effective sampling interval (doubles on each decimation).
  [[nodiscard]] Cycle interval() const noexcept { return interval_; }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Column index of `name` (dotted name or flat key); -1 when absent.
  [[nodiscard]] int column(std::string_view name) const;
  /// All values of one column, in time order.
  [[nodiscard]] std::vector<double> values(std::string_view name) const;

  /// Append a sample; decimates (and doubles interval_) at `max_samples`.
  void push(Cycle t, std::vector<double> v, std::uint32_t max_samples);

  /// {"interval": N, "metrics": [...], "samples": [[t, v...], ...]} —
  /// non-finite values emit as null.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] bool operator==(const Series&) const = default;

 private:
  std::vector<std::string> names_;
  Cycle interval_ = 0;
  std::vector<Sample> samples_;
};

/// One JSON object mapping labels (spec keys, escaped) to series bodies:
/// {"<label>": {"interval": ..., ...}, ...} — the single wrapper every
/// series file writer (simulate --series, fig08_occupancy) uses.
[[nodiscard]] std::string series_map_json(
    std::span<const std::pair<std::string, const Series*>> entries);

/// Drives a Series from inside a simulation loop.
class StatSampler {
 public:
  /// `snapshot(at, s)` fills `s` with the *live* machine state at time
  /// `at` (occupancy fields instantaneous, counters as-of-now). Aborts on unknown metric
  /// names — validate CLI input with MetricSchema::parse_selection first.
  StatSampler(const SeriesConfig& cfg,
              std::function<void(Cycle, SimStats&)> snapshot);

  /// Call with a (globally non-decreasing) event time; samples at most once
  /// per crossed interval boundary.
  void observe(Cycle now);
  /// Record the final point at `end` (idempotent for repeated ends).
  void finish(Cycle end);

  [[nodiscard]] const Series& series() const noexcept { return series_; }

 private:
  void sample(Cycle at);

  std::function<void(Cycle, SimStats&)> snapshot_;
  std::vector<const MetricDesc*> selection_;
  Series series_;
  Cycle next_ = 0;
};

}  // namespace raccd
