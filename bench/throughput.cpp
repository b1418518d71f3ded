// Host throughput benchmark: how many *simulated* cycles (and replayed
// accesses) the simulator retires per wall-clock second, per workload x
// coherence mode x topology x DRAM model.
//
// This measures the simulator itself, not the modelled machine — the number
// every other bench binary's turnaround time depends on. Next to the times it
// prints the event loop's work counters (obs::EngineWork), which are exact and
// host-independent: the steps taken in the global order, the records run as
// pure hits outside it, the catch-ups remote touches forced, and the records
// lookahead examined. Runs merge into the
// cumulative results/BENCH_throughput.json keyed by RunSpec::key() (same
// line-per-entry merge format as BENCH_grid.json).
//
// --trace-ab measures the cost of event tracing compiled-in-but-off: each
// rep runs the same simulation twice back to back — null sink, then a sink
// armed with every category filtered off, so every instrumentation guard
// executes and nothing records. Interleaving the arms per rep makes the
// comparison robust to host load drift; the gate fails if the armed arm's
// best time regresses more than the tolerance (default 2%), and always
// fails if the two arms' stats differ (tracing must be pure observation).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "raccd/apps/registry.hpp"
#include "raccd/common/format.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/obs/trace_sink.hpp"
#include "raccd/sim/machine.hpp"

namespace raccd {
namespace {

constexpr const char* kThroughputJsonPath = "results/BENCH_throughput.json";

struct Measurement {
  SimStats stats;
  obs::EngineWork work;
  double best_wall_s = 0.0;

  [[nodiscard]] double sim_cycles_per_sec() const {
    return best_wall_s > 0.0 ? static_cast<double>(stats.cycles) / best_wall_s : 0.0;
  }
  [[nodiscard]] double accesses_per_sec() const {
    return best_wall_s > 0.0 ? static_cast<double>(stats.accesses_replayed) / best_wall_s
                             : 0.0;
  }
};

/// Best-of-`reps` wall-clock timing of one uncached simulation.
[[nodiscard]] Measurement measure(const RunSpec& spec, unsigned reps) {
  Measurement m;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::string err;
    obs::RunProfile profile;
    std::optional<SimStats> stats = run_one_checked(spec, nullptr, &err, {}, {}, &profile);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (!stats.has_value()) {
      std::fprintf(stderr, "%s: %s\n", spec.key().c_str(), err.c_str());
      std::exit(2);
    }
    if (r == 0 || wall < m.best_wall_s) m.best_wall_s = wall;
    m.stats = *stats;  // deterministic: identical every rep
    m.work = profile.work;
  }
  return m;
}

/// One uncached simulation with an optional trace sink attached, timed from
/// Machine construction to collect() (process startup excluded).
[[nodiscard]] double timed_run(const RunSpec& spec, obs::TraceSink* sink,
                               SimStats* stats_out) {
  const auto t0 = std::chrono::steady_clock::now();
  Machine machine(config_for(spec));
  if (sink != nullptr) machine.set_obs_trace(sink);
  AppConfig acfg;
  acfg.size = spec.size;
  acfg.seed = spec.seed;
  std::string err = WorkloadParams::parse(spec.params, acfg.params);
  std::unique_ptr<App> app;
  if (err.empty()) app = WorkloadRegistry::instance().create(spec.app, acfg, &err);
  if (app == nullptr) {
    std::fprintf(stderr, "trace-ab: cannot run %s: %s\n", spec.key().c_str(),
                 err.c_str());
    std::exit(2);
  }
  app->run(machine);
  *stats_out = machine.collect();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The trace-smoke CI gate: tracing compiled-in-but-off must be (nearly)
/// free, and attaching a sink must never change results.
[[nodiscard]] int trace_ab_gate(const BenchOptions& opts, unsigned reps,
                                double max_pct) {
  int rc = 0;
  std::printf("%-34s %-7s %12s %12s %9s\n", "workload", "mode", "plain ms",
              "armed-off ms", "delta");
  for (const char* w : {"jacobi", "synthetic:footprint_kb=4096"}) {
    for (const CohMode m : {CohMode::kFullCoh, CohMode::kRaCCD}) {
      RunSpec spec;
      if (const std::string err = spec.set_workload_ref(w); !err.empty()) {
        std::fprintf(stderr, "trace-ab: %s\n", err.c_str());
        return 2;
      }
      spec.size = opts.size;
      spec.mode = m;
      spec.paper_machine = opts.paper_machine;
      obs::TraceConfig armed_cfg;
      armed_cfg.categories = 0;  // every guard runs, nothing records
      double best_plain = 0.0, best_armed = 0.0;
      SimStats plain_stats, armed_stats;
      for (unsigned r = 0; r < reps; ++r) {
        // Interleave the arms so host-load drift hits both equally.
        const double p = timed_run(spec, nullptr, &plain_stats);
        obs::TraceSink sink(armed_cfg);
        const double a = timed_run(spec, &sink, &armed_stats);
        if (r == 0 || p < best_plain) best_plain = p;
        if (r == 0 || a < best_armed) best_armed = a;
      }
      if (stats_to_text(plain_stats) != stats_to_text(armed_stats)) {
        std::fprintf(stderr, "trace-ab: FAIL: stats differ with a sink attached "
                             "for %s\n",
                     spec.key().c_str());
        rc = 1;
      }
      const double pct = best_plain > 0.0
                             ? (best_armed - best_plain) * 100.0 / best_plain
                             : 0.0;
      std::printf("%-34s %-7s %12.2f %12.2f %+8.2f%%\n", w, to_string(m),
                  best_plain * 1e3, best_armed * 1e3, pct);
      // Sub-millisecond deltas are timer noise on tiny runs, not overhead.
      if (pct > max_pct && best_armed - best_plain > 1e-3) rc = 1;
    }
  }
  if (rc == 1) {
    std::fprintf(stderr, "throughput: FAIL (armed-but-off tracing costs >%g%%)\n",
                 max_pct);
  }
  return rc;
}

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
/// object format as ResultSet::append_bench_json; other keys are preserved).
[[nodiscard]] bool merge_json(const std::vector<std::pair<std::string, std::string>>& add) {
  std::map<std::string, std::string> entries;
  if (std::ifstream in(kThroughputJsonPath); in) {
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
  return write_file_atomic(kThroughputJsonPath, text);
}

int run(int argc, char** argv) {
  BenchOptions opts = BenchOptions::parse(argc, argv);
  unsigned reps = 3;
  bool trace_ab = false;
  double max_trace_pct = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::max(1u, static_cast<unsigned>(std::strtoul(argv[i] + 7, nullptr, 10)));
    } else if (std::strcmp(argv[i], "--trace-ab") == 0) {
      trace_ab = true;
    } else if (std::strncmp(argv[i], "--max-trace-pct=", 16) == 0) {
      max_trace_pct = std::atof(argv[i] + 16);
    }
  }
  if (trace_ab) return trace_ab_gate(opts, reps, max_trace_pct);

  // The throughput grid: the two replay-heaviest workloads (jacobi streams,
  // synthetic with a footprint that overflows the scaled 2 MB LLC), the two
  // systems whose hot paths differ most (FullCoh exercises the directory,
  // RaCCD the NCRT), both machine shapes and both memory models.
  struct Config {
    const char* workload;
    CohMode mode;
    const char* topo;
    const char* dram;
  };
  std::vector<Config> grid;
  for (const char* w : {"jacobi", "synthetic:footprint_kb=4096"}) {
    for (const CohMode m : {CohMode::kFullCoh, CohMode::kRaCCD}) {
      for (const char* t : {"flat", "numa2"}) {
        for (const char* d : {"simple", "ddr"}) {
          grid.push_back(Config{w, m, t, d});
        }
      }
    }
  }

  std::vector<std::pair<std::string, std::string>> json;
  std::printf("%-34s %-7s %-6s %-6s %10s %10s %10s %10s %10s %10s\n", "workload", "mode",
              "topo", "dram", "Mcycles/s", "Macc/s", "ordered", "pure hits", "catch-ups",
              "peeked");
  for (const Config& c : grid) {
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
    spec.mode = c.mode;
    spec.topo = c.topo;
    spec.dram = c.dram;
    spec.paper_machine = opts.paper_machine;

    const Measurement m = measure(spec, reps);
    std::printf("%-34s %-7s %-6s %-6s %10.2f %10.2f %10llu %10llu %10llu %10llu\n",
                c.workload, to_string(c.mode), c.topo, c.dram,
                m.sim_cycles_per_sec() / 1e6, m.accesses_per_sec() / 1e6,
                static_cast<unsigned long long>(m.work.ordered_events),
                static_cast<unsigned long long>(m.work.pure_hits),
                static_cast<unsigned long long>(m.work.catch_ups),
                static_cast<unsigned long long>(m.work.peeked));
    std::fflush(stdout);

    std::string payload = strprintf(
        "{\"sim_cycles_per_sec\": %.0f, \"accesses_per_sec\": %.0f, "
        "\"cycles\": %llu, \"accesses\": %llu, \"wall_s\": %.6f, \"reps\": %u, "
        "\"ordered_events\": %llu, \"pure_hits\": %llu, \"catch_ups\": %llu, "
        "\"peeked\": %llu}",
        m.sim_cycles_per_sec(), m.accesses_per_sec(),
        static_cast<unsigned long long>(m.stats.cycles),
        static_cast<unsigned long long>(m.stats.accesses_replayed), m.best_wall_s,
        reps, static_cast<unsigned long long>(m.work.ordered_events),
        static_cast<unsigned long long>(m.work.pure_hits),
        static_cast<unsigned long long>(m.work.catch_ups),
        static_cast<unsigned long long>(m.work.peeked));
    std::string key = spec.key();
    for (char& ch : key) {
      if (ch == '"' || ch == '\\') ch = '_';
    }
    json.emplace_back(std::move(key), std::move(payload));
  }

  if (!merge_json(json)) {
    std::fprintf(stderr, "warning: could not update %s\n", kThroughputJsonPath);
  } else {
    std::printf("(merged %zu entries into %s)\n", json.size(), kThroughputJsonPath);
  }
  return 0;
}

}  // namespace
}  // namespace raccd

int main(int argc, char** argv) { return raccd::run(argc, argv); }
