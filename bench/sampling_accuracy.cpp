// Sampled-simulation accuracy/speedup benchmark: for each workload x
// coherence mode, run the medium problem fully detailed and again with the
// sampled simulator (functional fast-forward + detailed windows,
// sim/machine.cpp), then report wall-clock speedup and the error of every
// mode-separating metric against its reported 95% confidence interval.
//
// This is the CI `sampling-smoke` gate: it exits non-zero when the sampled
// run is less than --min-speedup times faster than detailed, when the runs of
// one side disagree on their stats, or when a gated
// metric lands outside both its 95% CI and the --max-err relative band
// (rate/level metrics use an absolute band instead — a relative error on a
// near-zero row-hit rate is noise, not signal). Results merge into the
// cumulative results/BENCH_sampling.json keyed by RunSpec::key() (same
// line-per-entry format as BENCH_throughput.json).
//
// Window sizing: the detailed block (warmup + window + the implicit
// cooldown) must span enough *cycles* to ride out the DRAM queue/writeback
// transient that follows every fast-forward stretch — finer-grained tasks
// need proportionally more of them. The per-app defaults below hold every
// gated metric within ~3% at >= 5x; halving the window on the same workload
// roughly triples the cycle error (see README "Sampled simulation").
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "raccd/common/format.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"

namespace raccd {
namespace {

constexpr const char* kSamplingJsonPath = "results/BENCH_sampling.json";

/// Runs per side. One detailed run's wall time swings by ~20% from run to
/// run, more than the speedup gate's margin, so each side is timed as the
/// median of this many runs.
constexpr int kRuns = 3;

struct Timed {
  SimStats stats;
  std::vector<double> run_s;  ///< wall time of each run, in run order
  double wall_s = 0.0;        ///< median of run_s
  bool identical = true;      ///< every run produced the same stats bytes
};

[[nodiscard]] Timed measure(const RunSpec& spec) {
  Timed t;
  std::string first;
  for (int r = 0; r < kRuns; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    SimStats s = run_one(spec);
    t.run_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    const std::string text = stats_to_text(s);
    if (r == 0) {
      first = text;
      t.stats = std::move(s);
    } else {
      t.identical = t.identical && text == first;
    }
  }
  std::vector<double> sorted = t.run_s;
  std::sort(sorted.begin(), sorted.end());
  t.wall_s = sorted[sorted.size() / 2];
  return t;
}

[[nodiscard]] std::string join_times(const std::vector<double>& v, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) out += strprintf("%s%.3f", i ? sep : "", v[i]);
  return out;
}

/// One gated metric: extrapolated value vs detailed truth, judged against
/// max(reported 95% CI, tolerance). Counter metrics take a relative
/// tolerance; rates/levels (already in [0,1]) an absolute one.
struct MetricCheck {
  const char* name;
  double detailed;
  double sampled;
  double ci95;
  double tol;  ///< absolute tolerance floor (pre-scaled for counters)

  [[nodiscard]] double err() const { return sampled - detailed; }
  [[nodiscard]] double rel_err() const {
    return detailed != 0.0 ? err() / detailed : 0.0;
  }
  [[nodiscard]] bool within_ci() const { return std::fabs(err()) <= ci95; }
  [[nodiscard]] bool pass() const {
    return std::fabs(err()) <= std::max(ci95, tol);
  }
};

[[nodiscard]] bool write_file_atomic(const std::string& path, const std::string& text) {
  if (const auto dir = std::filesystem::path(path).parent_path(); !dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  const std::string tmp = strprintf(
      "%s.tmp.%llu", path.c_str(),
      static_cast<unsigned long long>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << text;
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

/// Merge measurements into the cumulative log (same one-entry-per-line JSON
/// object format as BENCH_throughput.json; other keys are preserved).
[[nodiscard]] bool merge_json(const std::vector<std::pair<std::string, std::string>>& add) {
  std::map<std::string, std::string> entries;
  if (std::ifstream in(kSamplingJsonPath); in) {
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t kq0 = line.find('"');
      if (kq0 == std::string::npos) continue;
      const std::size_t kq1 = line.find('"', kq0 + 1);
      const std::size_t brace0 = line.find('{', kq1);
      const std::size_t brace1 = line.rfind('}');
      if (kq1 == std::string::npos || brace0 == std::string::npos ||
          brace1 == std::string::npos || brace1 <= brace0) {
        continue;
      }
      entries[line.substr(kq0 + 1, kq1 - kq0 - 1)] =
          line.substr(brace0, brace1 - brace0 + 1);
    }
  }
  for (const auto& [key, payload] : add) entries[key] = payload;
  std::string text = "{\n";
  std::size_t n = 0;
  for (const auto& [key, payload] : entries) {
    text += strprintf("  \"%s\": %s%s\n", key.c_str(), payload.c_str(),
                      ++n < entries.size() ? "," : "");
  }
  text += "}\n";
  return write_file_atomic(kSamplingJsonPath, text);
}

int run(int argc, char** argv) {
  BenchOptions opts = BenchOptions::parse(argc, argv);
  double min_speedup = 3.0;
  double max_err = 0.05;
  bool size_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::strtod(argv[i] + 14, nullptr);
    } else if (std::strncmp(argv[i], "--max-err=", 10) == 0) {
      max_err = std::strtod(argv[i] + 10, nullptr);
    } else if (std::strncmp(argv[i], "--size=", 7) == 0) {
      size_given = true;
    }
  }
  // Default to medium — the size class sampling exists for.
  if (!size_given) opts.size = SizeClass::kMedium;

  // Per-app sampling defaults: the detailed block scales with task grain
  // (jacobi medium runs 4-row tasks, ~10x shorter than synthetic's) so both
  // blocks span a comparable stretch of simulated time. --sample= overrides
  // both for tuning experiments.
  struct Config {
    const char* workload;
    const char* sampling;
  };
  const std::vector<Config> grid = {
      {"jacobi", "2048/96/48"},
      {"synthetic", "2560/64/32"},
  };
  const std::vector<CohMode> modes = {CohMode::kFullCoh, CohMode::kRaCCD};

  std::vector<std::pair<std::string, std::string>> json;
  bool gate_failed = false;
  for (const Config& c : grid) {
    for (const CohMode mode : modes) {
      RunSpec spec;
      if (const std::string err = spec.set_workload_ref(c.workload); !err.empty()) {
        std::fprintf(stderr, "workload %s: %s\n", c.workload, err.c_str());
        return 2;
      }
      if (!opts.params.entries().empty()) {
        WorkloadParams p;
        (void)WorkloadParams::parse(spec.params, p);
        for (const auto& e : opts.params.entries()) p.set(e.key, e.value);
        spec.params = p.canonical();
      }
      spec.size = opts.size;
      spec.mode = mode;
      spec.topo = opts.topo;
      spec.dram = opts.dram.empty() || opts.dram == "simple" ? "ddr" : opts.dram;
      spec.paper_machine = opts.paper_machine;

      const Timed detailed = measure(spec);
      spec.sampling = opts.sampling.empty() ? c.sampling : opts.sampling;
      const Timed sampled = measure(spec);
      const double speedup =
          sampled.wall_s > 0.0 ? detailed.wall_s / sampled.wall_s : 0.0;

      const SimStats& d = detailed.stats;
      const SimStats& s = sampled.stats;
      const SamplingStats& sp = s.sampling;
      const auto cnt = [&](double det) { return max_err * det; };
      const std::vector<MetricCheck> checks = {
          {"cycles", static_cast<double>(d.cycles), static_cast<double>(s.cycles),
           sp.cycles_ci95, cnt(static_cast<double>(d.cycles))},
          {"dir_accesses", static_cast<double>(d.fabric.dir_accesses),
           static_cast<double>(s.fabric.dir_accesses), sp.dir_accesses_ci95,
           cnt(static_cast<double>(d.fabric.dir_accesses))},
          {"llc_hits", static_cast<double>(d.fabric.llc_hits),
           static_cast<double>(s.fabric.llc_hits), sp.llc_hits_ci95,
           cnt(static_cast<double>(d.fabric.llc_hits))},
          {"noc_flits", static_cast<double>(d.noc.total_flits()),
           static_cast<double>(s.noc.total_flits()), sp.noc_flits_ci95,
           cnt(static_cast<double>(d.noc.total_flits()))},
          {"noc_flit_hops", static_cast<double>(d.noc.total_flit_hops()),
           static_cast<double>(s.noc.total_flit_hops()), sp.noc_flit_hops_ci95,
           cnt(static_cast<double>(d.noc.total_flit_hops()))},
          // Rates/levels: absolute band (2 points of rate), not relative.
          {"dram_row_hit_rate", d.fabric.dram_row_hit_ratio(),
           s.fabric.dram_row_hit_ratio(), sp.dram_row_hit_rate_ci95, 0.02},
          {"dir_occupancy", d.avg_dir_occupancy, s.avg_dir_occupancy,
           sp.dir_occupancy_ci95, 0.02},
      };

      const bool speed_ok = speedup >= min_speedup;
      const bool repeat_ok = detailed.identical && sampled.identical;
      bool metrics_ok = true;
      std::printf("%s --mode=%s --sample=%s: %.2fs detailed, %.2fs sampled "
                  "(%.2fx, %llu windows; median of %d runs: detailed %s s, sampled %s s)\n",
                  c.workload, to_string(mode), spec.sampling.c_str(),
                  detailed.wall_s, sampled.wall_s, speedup,
                  static_cast<unsigned long long>(sp.windows), kRuns,
                  join_times(detailed.run_s, " ").c_str(),
                  join_times(sampled.run_s, " ").c_str());
      std::string metrics_json;
      for (const MetricCheck& m : checks) {
        metrics_ok = metrics_ok && m.pass();
        std::printf("  %-18s det=%14.6g smp=%14.6g err=%+6.2f%% ci95=%12.4g %s\n",
                    m.name, m.detailed, m.sampled, 100.0 * m.rel_err(), m.ci95,
                    m.pass() ? (m.within_ci() ? "ok (in CI)" : "ok") : "FAIL");
        metrics_json += strprintf(
            ", \"%s\": {\"detailed\": %.6g, \"sampled\": %.6g, \"ci95\": %.6g}",
            m.name, m.detailed, m.sampled, m.ci95);
      }
      if (!speed_ok) {
        std::printf("  FAIL: speedup %.2fx < required %.2fx\n", speedup, min_speedup);
      }
      if (!repeat_ok) {
        std::printf("  FAIL: repeated runs disagree on their stats (detailed %s, sampled %s)\n",
                    detailed.identical ? "same" : "differ",
                    sampled.identical ? "same" : "differ");
      }
      gate_failed = gate_failed || !speed_ok || !repeat_ok || !metrics_ok;

      std::string payload = strprintf(
          "{\"speedup\": %.3f, \"detailed_wall_s\": %.3f, \"sampled_wall_s\": %.3f, "
          "\"detailed_runs_s\": [%s], \"sampled_runs_s\": [%s], "
          "\"windows\": %llu, \"scale\": %.3f%s}",
          speedup, detailed.wall_s, sampled.wall_s,
          join_times(detailed.run_s, ", ").c_str(), join_times(sampled.run_s, ", ").c_str(),
          static_cast<unsigned long long>(sp.windows), sp.scale,
          metrics_json.c_str());
      json.emplace_back(spec.key(), std::move(payload));
      std::fflush(stdout);
    }
  }

  if (!merge_json(json)) {
    std::fprintf(stderr, "warning: could not update %s\n", kSamplingJsonPath);
  } else {
    std::printf("(merged %zu entries into %s)\n", json.size(), kSamplingJsonPath);
  }
  if (gate_failed) {
    std::fprintf(stderr, "sampling_accuracy: FAIL (speedup, repeatability or accuracy gate)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace raccd

int main(int argc, char** argv) { return raccd::run(argc, argv); }
