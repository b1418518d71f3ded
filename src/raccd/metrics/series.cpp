#include "raccd/metrics/series.hpp"

#include <cmath>

#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"
#include "raccd/metrics/emit.hpp"

namespace raccd {

int Series::column(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
    if (const MetricDesc* m = MetricSchema::instance().find(name);
        m != nullptr && names_[i] == m->name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<double> Series::values(std::string_view name) const {
  const int c = column(name);
  RACCD_ASSERT(c >= 0, "metric not present in this series");
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.v[static_cast<std::size_t>(c)]);
  return out;
}

void Series::push(Cycle t, std::vector<double> v, std::uint32_t max_samples) {
  RACCD_ASSERT(v.size() == names_.size(), "sample arity != metric count");
  RACCD_ASSERT(max_samples >= 2, "a ring bound below 2 cannot decimate");
  if (samples_.size() >= max_samples) {
    // Decimate: keep every second sample and double the stride — full-run
    // coverage at bounded memory, and still deterministic (the kept indices
    // depend only on the sample count).
    std::vector<Sample> kept;
    kept.reserve(samples_.size() / 2 + 1);
    for (std::size_t i = 0; i < samples_.size(); i += 2) {
      kept.push_back(std::move(samples_[i]));
    }
    samples_ = std::move(kept);
    interval_ *= 2;
  }
  samples_.push_back(Sample{t, std::move(v)});
}

std::string Series::to_json() const {
  std::string out = strprintf("{\"interval\": %llu, \"metrics\": [",
                              static_cast<unsigned long long>(interval_));
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out += strprintf("%s\"%s\"", i == 0 ? "" : ", ", json_escape(names_[i]).c_str());
  }
  out += "], \"samples\": [\n";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    out += strprintf("  [%llu", static_cast<unsigned long long>(samples_[i].t));
    for (const double v : samples_[i].v) {
      out += std::isfinite(v) ? strprintf(", %.9g", v) : std::string(", null");
    }
    out += strprintf("]%s\n", i + 1 < samples_.size() ? "," : "");
  }
  out += "]}";
  return out;
}

std::string series_map_json(
    std::span<const std::pair<std::string, const Series*>> entries) {
  std::string out = "{\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += strprintf("  \"%s\": %s%s\n", json_escape(entries[i].first).c_str(),
                     entries[i].second->to_json().c_str(),
                     i + 1 < entries.size() ? "," : "");
  }
  out += "}\n";
  return out;
}

StatSampler::StatSampler(const SeriesConfig& cfg,
                         std::function<void(Cycle, SimStats&)> snapshot)
    : snapshot_(std::move(snapshot)) {
  RACCD_ASSERT(cfg.interval > 0, "StatSampler requires a nonzero interval");
  const MetricSchema& schema = MetricSchema::instance();
  std::vector<std::string> names;
  if (cfg.metrics.empty()) {
    for (const char* n : default_series_metrics()) {
      selection_.push_back(&schema.get(n));
    }
  } else {
    const std::string err = schema.parse_selection(cfg.metrics, selection_);
    if (!err.empty()) {
      std::fprintf(stderr, "series metrics '%s': %s\n", cfg.metrics.c_str(),
                   err.c_str());
      RACCD_ASSERT(false, "unknown metric in series selection");
    }
  }
  names.reserve(selection_.size());
  for (const MetricDesc* m : selection_) names.emplace_back(m->name);
  series_ = Series(std::move(names), cfg.interval);
  next_ = cfg.interval;
}

void StatSampler::sample(Cycle at) {
  SimStats snap;
  snapshot_(at, snap);
  std::vector<double> v;
  v.reserve(selection_.size());
  for (const MetricDesc* m : selection_) v.push_back(m->value(snap).as_double());
  series_.push(at, std::move(v), kSeriesMaxSamples);
}

void StatSampler::observe(Cycle now) {
  if (now < next_) return;
  sample(now);
  const Cycle iv = series_.interval();  // may have doubled via decimation
  next_ = (now / iv + 1) * iv;
}

void StatSampler::finish(Cycle end) {
  if (!series_.samples().empty() && series_.samples().back().t == end) return;
  sample(end);
}

}  // namespace raccd
