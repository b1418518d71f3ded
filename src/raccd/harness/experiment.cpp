#include "raccd/harness/experiment.hpp"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "raccd/apps/registry.hpp"
#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"
#include "raccd/exec/sweep_executor.hpp"
#include "raccd/harness/sweep_cache.hpp"  // kStatsFormatVersion in RunSpec::key()

namespace raccd {
namespace {

/// A `file` workload param names external content the spec identity must
/// reflect: hash the bytes so re-recording a trace to the same path cannot
/// reuse a stale cache entry. Unreadable files hash to a fixed marker.
/// Memoized per path for the life of the process — key() sits on the
/// executor's hot path and sweeps call it several times per spec.
[[nodiscard]] std::string file_param_fingerprint(const std::string& params) {
  WorkloadParams p;
  if (!WorkloadParams::parse(params, p).empty()) return {};
  const std::string* path = p.raw("file");
  if (path == nullptr || path->empty()) return {};

  static std::mutex memo_mutex;
  static std::unordered_map<std::string, std::string> memo;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex);
    if (const auto it = memo.find(*path); it != memo.end()) return it->second;
  }
  std::string fp = "-fh0";
  if (std::FILE* f = std::fopen(path->c_str(), "rb"); f != nullptr) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    unsigned char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      for (std::size_t i = 0; i < n; ++i) h = (h ^ buf[i]) * 0x100000001b3ULL;
    }
    std::fclose(f);
    fp = strprintf("-fh%016llx", static_cast<unsigned long long>(h));
  }
  const std::lock_guard<std::mutex> lock(memo_mutex);
  memo.emplace(*path, fp);
  return fp;
}

}  // namespace

std::string RunSpec::workload_ref() const {
  return params.empty() ? app : app + ":" + params;
}

std::string RunSpec::set_workload_ref(std::string_view ref) {
  WorkloadParams p;
  const std::string err = parse_workload_ref(ref, app, p);
  if (err.empty()) params = p.canonical();
  return err;
}

std::string RunSpec::key() const {
  std::string k =
      strprintf("%s-%s-%s-d%u%s%s-s%llu-nl%u-ne%u-%s-%s-v%u", app.c_str(),
                to_string(size), to_string(mode), dir_ratio, adr ? "-adr" : "",
                paper_machine ? "-paperm" : "", static_cast<unsigned long long>(seed),
                static_cast<unsigned>(ncrt_latency), ncrt_entries, to_string(alloc),
                to_string(sched), kStatsFormatVersion);
  // Only non-default extensions append, so legacy cache keys stay valid.
  if (adr_theta_inc != 0.80 || adr_theta_dec != 0.20) {
    k += strprintf("-ti%g-td%g", adr_theta_inc, adr_theta_dec);
  }
  if (topo != "flat") k += strprintf("-t%s", topo.c_str());
  if (dram != "simple") k += strprintf("-dram=%s", dram.c_str());
  if (!sampling.empty()) {
    // Canonicalize through the parser so "10/1" and "10/1/1" share one key.
    SamplingConfig sc;
    if (parse_sampling(sampling, sc).empty()) {
      k += strprintf("-smp%u-%u-%u", sc.period, sc.window, sc.warmup);
    } else {
      k += strprintf("-smp{%s}", sampling.c_str());  // config_for will reject it
    }
  }
  if (!params.empty()) {
    k += strprintf("-p{%s}", params.c_str());
    k += file_param_fingerprint(params);
  }
  return k;
}

SimConfig config_for(const RunSpec& spec) {
  SimConfig cfg =
      spec.paper_machine ? SimConfig::paper(spec.mode) : SimConfig::scaled(spec.mode);
  if (const std::string err = cfg.apply_topology(spec.topo); !err.empty()) {
    std::fprintf(stderr, "topology '%s': %s\n", spec.topo.c_str(), err.c_str());
    RACCD_ASSERT(false, "malformed topology token");
  }
  if (const std::string err = cfg.apply_dram(spec.dram); !err.empty()) {
    std::fprintf(stderr, "dram '%s': %s\n", spec.dram.c_str(), err.c_str());
    RACCD_ASSERT(false, "malformed DRAM token");
  }
  if (!spec.sampling.empty()) {
    if (const std::string err = cfg.apply_sampling(spec.sampling); !err.empty()) {
      std::fprintf(stderr, "sampling '%s': %s\n", spec.sampling.c_str(), err.c_str());
      RACCD_ASSERT(false, "malformed sampling token");
    }
  }
  cfg.set_dir_ratio(spec.dir_ratio);
  cfg.adr.enabled = spec.adr;
  cfg.adr.theta_inc = spec.adr_theta_inc;
  cfg.adr.theta_dec = spec.adr_theta_dec;
  cfg.timing.ncrt_lookup_cycles = spec.ncrt_latency;
  cfg.raccd.ncrt_entries = spec.ncrt_entries;
  cfg.alloc_policy = spec.alloc;
  cfg.sched = spec.sched;
  cfg.seed = spec.seed;
  cfg.series.interval = spec.series_interval;
  cfg.series.metrics = spec.series_metrics;
  return cfg;
}

std::optional<SimStats> run_one_checked(
    const RunSpec& spec, Series* series_out, std::string* error,
    const std::function<void(SimPhase, std::uint64_t)>& phase_hook,
    const std::function<void(std::uint64_t)>& release_hook,
    obs::RunProfile* profile) {
  obs::ScopeTimer timer;
  Machine machine(config_for(spec));
  if (phase_hook) machine.set_phase_hook(phase_hook);
  if (release_hook) machine.set_release_hook(release_hook);
  AppConfig acfg;
  acfg.size = spec.size;
  acfg.seed = spec.seed;
  std::string err = WorkloadParams::parse(spec.params, acfg.params);
  std::unique_ptr<App> app;
  if (err.empty()) {
    // Sampled simulation fast-forwards task timing, which would silently
    // corrupt the per-request latency distributions open-loop service runs
    // exist to measure — reject the combination instead of mis-measuring.
    const WorkloadInfo* info = WorkloadRegistry::instance().find(spec.app);
    if (info != nullptr && info->family == "service" && !spec.sampling.empty()) {
      if (error != nullptr) {
        *error = "cannot run: sampled simulation is incompatible with open-loop "
                 "service workloads (per-request latency needs detailed timing)";
      }
      return std::nullopt;
    }
    app = WorkloadRegistry::instance().create(spec.app, acfg, &err);
  }
  if (app == nullptr) {
    if (error != nullptr) *error = "cannot run: " + err;
    return std::nullopt;
  }
  if (profile != nullptr) {
    profile->setup_s = timer.seconds();
    timer.reset();
  }
  app->run(machine);
  err = app->verify(machine);
  if (!err.empty()) {
    if (error != nullptr) *error = "verification failed: " + err;
    return std::nullopt;
  }
  SimStats stats = machine.collect();
  if (series_out != nullptr && machine.series() != nullptr) {
    *series_out = *machine.series();
  }
  if (profile != nullptr) {
    profile->sim_s = timer.seconds();
    profile->work = machine.engine_work();
  }
  return stats;
}

SimStats run_one(const RunSpec& spec, Series* series_out) {
  std::string err;
  const std::optional<SimStats> stats = run_one_checked(spec, series_out, &err);
  if (!stats.has_value()) {
    std::fprintf(stderr, "%s: %s\n", spec.key().c_str(), err.c_str());
    RACCD_ASSERT(false, "run_one failed (unknown workload, bad params, or "
                        "verification mismatch)");
  }
  return *stats;
}

std::vector<SimStats> run_all(const std::vector<RunSpec>& specs, const RunOptions& opts,
                              std::vector<Series>* series_out) {
  SweepExecutor executor(opts);
  std::vector<SimStats> results = executor.run(specs, series_out);
  if (!executor.failures().empty()) {
    // The executor already drained in-flight work and cached every completed
    // run; all that is left is to fail loudly with the spec identities.
    std::fprintf(stderr, "run_all: %zu spec(s) failed:\n", executor.failures().size());
    for (const SweepFailure& f : executor.failures()) {
      std::fprintf(stderr, "  %s\n    %s\n", f.key.c_str(), f.error.c_str());
    }
    RACCD_ASSERT(false, "sweep aborted: at least one spec failed (keys above)");
  }
  return results;
}

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions o;
  const auto apply_size = [&o](const char* v) {
    const std::optional<SizeClass> size = parse_size_class(v);
    if (!size) {
      // Same reasoning as --set: a typo must not silently run the default.
      std::fprintf(stderr, "--size %s: expected tiny|small|medium|paper|large\n", v);
      std::exit(2);
    }
    o.size = *size;
  };
  if (const char* env = std::getenv("RACCD_SIZE")) apply_size(env);
  if (std::getenv("RACCD_PAPER") != nullptr) o.paper_machine = true;
  if (std::getenv("RACCD_NO_CACHE") != nullptr) o.run.use_cache = false;
  if (const char* env = std::getenv("RACCD_JOBS")) {
    o.run.jobs = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  const auto apply_set = [&o](const char* text) {
    WorkloadParams p;
    const std::string err = WorkloadParams::parse(text, p);
    if (!err.empty()) {
      // Running a whole sweep with silently-dropped overrides would be far
      // worse than refusing to start.
      std::fprintf(stderr, "--set %s: %s\n", text, err.c_str());
      std::exit(2);
    }
    for (const auto& e : p.entries()) o.params.set(e.key, e.value);
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--size=", 7) == 0) apply_size(a + 7);
    else if (std::strncmp(a, "--topology=", 11) == 0) o.topo = a + 11;
    else if (std::strncmp(a, "--dram=", 7) == 0) o.dram = a + 7;
    else if (std::strncmp(a, "--sample=", 9) == 0) o.sampling = a + 9;
    else if (std::strcmp(a, "--paper") == 0) o.paper_machine = true;
    else if (std::strcmp(a, "--no-cache") == 0) o.run.use_cache = false;
    else if (std::strcmp(a, "--verbose") == 0) o.run.verbose = true;
    else if (std::strncmp(a, "--jobs=", 7) == 0) {
      o.run.jobs = static_cast<unsigned>(std::strtoul(a + 7, nullptr, 10));
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      o.run.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(a, "-j", 2) == 0 && a[2] >= '0' && a[2] <= '9') {
      o.run.jobs = static_cast<unsigned>(std::strtoul(a + 2, nullptr, 10));
    } else if (std::strncmp(a, "--set=", 6) == 0) {
      apply_set(a + 6);
    } else if (std::strcmp(a, "--set") == 0 && i + 1 < argc) {
      apply_set(argv[++i]);
    }
  }
  return o;
}

}  // namespace raccd
