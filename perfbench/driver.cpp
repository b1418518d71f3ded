// raccd-sim host benchmark driver: one workload per process, closed loop
// (one simulation at a time; the sweep workload runs at most 4 workers).
//
// It measures the simulator in host time. Simulated statistics are checked
// (every run verifies, reps are byte-identical, the warm sweep matches the
// cold one) and reported as counts, never as end-to-end metrics: the model
// is unvalidated against real hardware, and a perf change must leave them
// byte-identical anyway.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 prints the end-to-end metrics (medians over the run's reps).
// --trace 1 prints the per-layer metrics: after untraced reps it makes one
// traced run with a span around every public call below, captures the task
// program in a separate untimed pass, replays the capture through each
// layer's entry point as child spans, and writes the spans to
// DIR/<workload>/trace-<workload>.json (Chrome Trace Event JSON, host
// microseconds).
// The last stdout line is the JSON result; the exit code is 0 iff correct.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "raccd/apps/registry.hpp"
#include "raccd/apps/trace_capture.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/exec/sweep_executor.hpp"
#include "raccd/harness/grid.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/obs/profiler.hpp"
#include "raccd/obs/trace_validate.hpp"
#include "raccd/sim/machine.hpp"

namespace perfbench {
namespace {

using namespace raccd;
namespace fs = std::filesystem;

// -- Workloads ----------------------------------------------------------------

/// Seeds of the sweep's grid per round: the Fig. 6 grid is repeated over
/// this many consecutive seeds so one cold pass is long enough to time.
constexpr std::uint64_t kSweepSeeds = 4;
/// Copies of a single-run workload's spec in its cached sweep: enough cache
/// loads per pass that one pass lasts milliseconds, not microseconds.
constexpr std::size_t kCachedCopies = 64;
/// Cached passes after each rep (and warm passes per sweep round): a pass
/// is short and its host noise is wider than a rep's, so it gets more samples.
constexpr int kCachedPassesPerRep = 4;
constexpr int kWarmPassesPerRound = 3;

struct Workload {
  std::string name;
  /// The spec timed rep by rep (single-run workloads) or the sweep's
  /// representative spec the per-layer replay runs on.
  RunSpec probe;
  /// Empty for single-run workloads; the grid for paper_grid_sweep.
  std::vector<RunSpec> sweep;
};

[[nodiscard]] RunSpec make_spec(const char* ref, SizeClass size, CohMode mode,
                                std::uint32_t dir_ratio, const char* topo,
                                const char* dram, std::uint64_t seed) {
  RunSpec s;
  if (const std::string err = s.set_workload_ref(ref); !err.empty()) {
    std::fprintf(stderr, "workload ref '%s': %s\n", ref, err.c_str());
    std::exit(2);
  }
  s.size = size;
  s.mode = mode;
  s.dir_ratio = dir_ratio;
  s.topo = topo;
  s.dram = dram;
  s.seed = seed;
  return s;
}

[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed) {
  Workload w{name, {}, {}};
  if (name == "dir_pressure") {
    w.probe = make_spec("synthetic:shape=pipeline,footprint_kb=512,depth=4", SizeClass::kSmall,
                        CohMode::kFullCoh, 8, "flat", "simple", seed);
  } else if (name == "raccd_numa_ddr") {
    w.probe = make_spec("jacobi", SizeClass::kSmall, CohMode::kRaCCD, 1, "numa2", "ddr",
                        seed);
  } else if (name == "service_open_loop") {
    w.probe = make_spec("service:requests=4096,load=0.4", SizeClass::kSmall,
                        CohMode::kRaCCD, 1, "flat", "simple", seed);
  } else if (name == "paper_grid_sweep") {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t k = 0; k < kSweepSeeds; ++k) seeds.push_back(seed + k);
    w.sweep = Grid()
                  .paper_apps()
                  .size(SizeClass::kTiny)
                  .modes(kAllBackends)
                  .dir_ratios(kDirRatios)
                  .seeds(seeds)
                  .specs();
    w.probe = make_spec("jacobi", SizeClass::kTiny, CohMode::kRaCCD, 1, "flat", "simple",
                        seed);
  } else {
    return std::nullopt;
  }
  return w;
}

// -- One simulation, call by call ---------------------------------------------

/// Host seconds of each public call one simulation makes, mirroring
/// run_one_checked.
struct Rep {
  bool ok = false;
  std::string error;
  SimStats stats;
  double config_s = 0, machine_s = 0, create_s = 0, run_s = 0, verify_s = 0, collect_s = 0;

  [[nodiscard]] double setup_s() const { return config_s + machine_s + create_s; }
  [[nodiscard]] double exec_s() const { return run_s + verify_s + collect_s; }
};

/// Time `fn` as a span of `rec`, or with a plain timer when untraced.
template <typename Fn>
double timed(SpanRecorder* rec, const char* name, const char* layer, Fn&& fn) {
  if (rec != nullptr) return rec->time(name, layer, fn);
  const obs::ScopeTimer t;
  fn();
  return t.seconds();
}

[[nodiscard]] Rep run_rep(const RunSpec& spec, SpanRecorder* rec) {
  Rep r;
  SimConfig cfg;
  std::optional<Machine> machine;
  std::unique_ptr<App> app;
  r.config_s = timed(rec, "config_for", "sim", [&] { cfg = config_for(spec); });
  r.machine_s = timed(rec, "Machine::Machine", "sim", [&] { machine.emplace(cfg); });
  r.create_s = timed(rec, "WorkloadRegistry::create", "apps", [&] {
    AppConfig acfg(spec.size, spec.seed);
    r.error = WorkloadParams::parse(spec.params, acfg.params);
    if (r.error.empty()) app = WorkloadRegistry::instance().create(spec.app, acfg, &r.error);
  });
  if (app == nullptr) {
    r.error = "cannot create: " + r.error;
    return r;
  }
  r.run_s = timed(rec, "App::run", "sim", [&] { app->run(*machine); });
  r.verify_s = timed(rec, "App::verify", "apps", [&] { r.error = app->verify(*machine); });
  if (!r.error.empty()) {
    r.error = "verification failed: " + r.error;
    return r;
  }
  r.collect_s = timed(rec, "Machine::collect", "sim", [&] { r.stats = machine->collect(); });
  r.ok = true;
  return r;
}

// -- Result bookkeeping -------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& what) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Summary of one timed quantity over a run's samples: median, quartiles, n.
void report_samples(const char* name, const char* unit, const std::vector<double>& v) {
  const auto [q1, q3] = quartiles(v);
  std::printf("  %-16s median %.6g %s (q1 %.6g, q3 %.6g, n=%zu)\n", name, median(v), unit,
              q1, q3, v.size());
}

/// Run one rep and check it: verification passes and the statistics text
/// equals the reference (the first rep's). Counts one operation.
Rep checked_rep(const RunSpec& spec, SpanRecorder* rec, std::string& ref_text,
                Outcome& out) {
  Rep r = run_rep(spec, rec);
  ++out.attempted;
  if (!r.ok) {
    ++out.failed;
    out.fail(spec.key() + ": " + r.error);
    return r;
  }
  const std::string text = stats_to_text(r.stats);
  if (ref_text.empty()) {
    ref_text = text;
  } else if (text != ref_text) {
    ++out.failed;
    out.fail(spec.key() + ": statistics differ between reps of one spec");
  }
  return r;
}

/// Untraced reps of `spec` until `seconds` have passed (at least 3 kept).
/// The first rep warms the heap and the host caches; it is checked like
/// the others but not kept.
std::vector<Rep> timed_reps(const RunSpec& spec, double seconds, std::string& ref_text,
                            Outcome& out) {
  std::vector<Rep> reps;
  const obs::ScopeTimer clock;
  if (!checked_rep(spec, nullptr, ref_text, out).ok) return reps;
  while (reps.size() < 3 || clock.seconds() < seconds) {
    Rep r = checked_rep(spec, nullptr, ref_text, out);
    if (!r.ok) break;
    reps.push_back(std::move(r));
  }
  return reps;
}

// -- The harness round: cold sweep, warm sweep --------------------------------

struct Round {
  double cold_s = 0;
  std::vector<double> warm_s;  ///< one per warm pass
  obs::SweepProfile cold_prof, warm_prof;
  std::vector<SimStats> cold, warm;
};

/// Run `specs` through the sweep executor over an empty cache directory:
/// the cold pass simulates and stores, then `warm_passes` warm passes load
/// every spec from the cache. Failed specs (zeroed stats) are counted, never
/// dropped, and a warm result that differs from its cold one fails the run.
Round harness_round(const std::vector<RunSpec>& specs, const fs::path& cache_dir,
                    unsigned jobs, int warm_passes, SpanRecorder* rec, Outcome& out) {
  Round r;
  fs::remove_all(cache_dir);
  RunOptions opts;
  opts.jobs = jobs;
  opts.cache_dir = cache_dir.string();
  const auto pass = [&](const char* name, std::vector<SimStats>& res) {
    return timed(rec, name, "exec", [&] {
      SweepExecutor exec(opts);
      res = exec.run(specs);
      for (const SweepFailure& f : exec.failures()) out.fail(f.key + ": " + f.error);
    });
  };
  r.cold_s = pass("SweepExecutor::run[cold]", r.cold);
  r.cold_prof = obs::last_sweep_profile();
  out.attempted += specs.size();
  for (const SimStats& s : r.cold) {
    if (s.tasks == 0) ++out.failed;
  }
  for (int k = 0; k < warm_passes; ++k) {
    r.warm_s.push_back(pass("SweepExecutor::run[warm]", r.warm));
    r.warm_prof = obs::last_sweep_profile();
    if (r.warm_prof.executed != 0) out.fail("warm sweep simulated instead of loading");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (r.cold[i].tasks != 0 && stats_to_text(r.cold[i]) != stats_to_text(r.warm[i])) {
        out.fail(specs[i].key() + ": warm sweep statistics differ from the cold sweep");
      }
    }
  }
  return r;
}

[[nodiscard]] std::uint64_t digest_of(const std::vector<SimStats>& stats) {
  std::uint64_t h = fnv1a("");
  for (const SimStats& s : stats) h = fnv1a(stats_to_text(s), h);
  return h;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[nodiscard]] unsigned sweep_jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// -- End-to-end metrics (--trace 0) -------------------------------------------

void end_to_end_single(const Workload& w, double seconds, const fs::path& work,
                       Outcome& out) {
  // The spec's result is cached after the warm-up rep; from then on every
  // rep is followed by kCachedPassesPerRep passes of the cached sweep, each
  // asking for the spec kCachedCopies times and loading every copy back. Interleaving spreads the
  // cached samples over the whole run, like the reps'.
  std::string ref;
  const obs::ScopeTimer clock;
  const Rep first = checked_rep(w.probe, nullptr, ref, out);
  if (!first.ok) return;
  const fs::path cache = work / "cache";
  fs::remove_all(cache);
  if (!cache_store(cache.string(), w.probe.key(), first.stats)) {
    out.fail("cache_store failed under " + cache.string());
    return;
  }
  RunOptions opts;
  opts.jobs = 1;
  opts.cache_dir = cache.string();
  const std::vector<RunSpec> copies(kCachedCopies, w.probe);

  std::vector<double> aps, setup, total, warm;
  while (aps.size() < 3 || clock.seconds() < seconds) {
    const Rep r = checked_rep(w.probe, nullptr, ref, out);
    if (!r.ok) break;
    aps.push_back(static_cast<double>(r.stats.accesses_replayed) / r.exec_s());
    setup.push_back(r.setup_s());
    total.push_back(r.setup_s() + r.exec_s());
    for (int pass = 0; pass < kCachedPassesPerRep; ++pass) {
      const obs::ScopeTimer t;
      SweepExecutor exec(opts);
      const std::vector<SimStats> res = exec.run(copies);
      warm.push_back(t.seconds());
      if (stats_to_text(res.back()) != ref) out.fail("cached result differs from the reps'");
    }
  }
  fs::remove_all(cache);
  if (!out.correct) return;

  std::printf("workload %s: %zu reps of %s\n", w.name.c_str(), aps.size(),
              w.probe.key().c_str());
  report_samples("accesses_per_s", "1/s", aps);
  report_samples("setup_s", "s", setup);
  report_samples("sweep_s", "s", total);
  report_samples("sweep_cached_s", "s", warm);
  std::printf("  stats digest %016llx (accesses %llu, tasks %llu)\n",
              static_cast<unsigned long long>(digest_of({first.stats})),
              static_cast<unsigned long long>(first.stats.accesses_replayed),
              static_cast<unsigned long long>(first.stats.tasks));
  out.add("accesses_per_s", median(aps), "1/s");
  out.add("setup_s", median(setup), "s");
  out.add("sweep_s", median(total), "s");
  out.add("sweep_cached_s", median(warm), "s");
}

void end_to_end_sweep(const Workload& w, double seconds, const fs::path& work,
                      Outcome& out) {
  std::vector<double> aps, setup, cold, warm;
  std::uint64_t ref_digest = 0;
  const obs::ScopeTimer clock;
  // Round 0 warms the pool, heap and host caches; it is checked, not kept.
  for (int round = 0; cold.size() < 3 || clock.seconds() < seconds; ++round) {
    const Round r = harness_round(w.sweep, work / "cache", sweep_jobs(), kWarmPassesPerRound,
                                  nullptr, out);
    if (!out.correct) break;
    const std::uint64_t d = digest_of(r.cold);
    if (round == 0) ref_digest = d;
    if (d != ref_digest) out.fail("sweep statistics differ between rounds");
    if (round == 0) continue;
    std::uint64_t accesses = 0;
    for (const SimStats& s : r.cold) accesses += s.accesses_replayed;
    aps.push_back(static_cast<double>(accesses) / r.cold_prof.sim_s);
    setup.push_back(r.cold_prof.setup_s / static_cast<double>(r.cold_prof.executed));
    cold.push_back(r.cold_s);
    warm.insert(warm.end(), r.warm_s.begin(), r.warm_s.end());
  }
  fs::remove_all(work / "cache");
  if (cold.empty()) return;
  std::printf("workload %s: %zu rounds of %zu specs, -j%u\n", w.name.c_str(), cold.size(),
              w.sweep.size(), sweep_jobs());
  report_samples("accesses_per_s", "1/s", aps);
  report_samples("setup_s", "s", setup);
  report_samples("sweep_s", "s", cold);
  report_samples("sweep_cached_s", "s", warm);
  std::printf("  stats digest %016llx\n", static_cast<unsigned long long>(ref_digest));
  out.add("accesses_per_s", median(aps), "1/s");
  out.add("setup_s", median(setup), "s");
  out.add("sweep_s", median(cold), "s");
  out.add("sweep_cached_s", median(warm), "s");
}

// -- Per-layer replay (--trace 1) ---------------------------------------------

/// One captured access record, translated ahead of time (untimed).
struct Rec {
  PageNum vpage = 0;
  PAddr paddr = 0;
  CoreId core = 0;
  std::uint16_t repeat = 1;
  std::uint8_t is_write = 0;
  std::uint8_t nc = 0;
};

/// The captured task program, flattened for replay.
struct Program {
  std::vector<std::vector<DepSpec>> deps;  ///< per task, virtual addresses
  std::vector<std::vector<std::pair<PAddr, PAddr>>> ranges;  ///< per task, NCRT ranges
  std::vector<std::size_t> first;  ///< per task, index of its first record; + end
  std::vector<Rec> recs;
  std::uint64_t accesses = 0;
  PageTable pt;  ///< the capture machine's mappings
};

/// Physical [start, end) ranges of one dependence, appended to `out` with
/// contiguous frames collapsed as raccd_register does for one dependence
/// (core/raccd_engine.cpp).
void physical_ranges(const PageTable& pt, VAddr va, std::uint64_t size,
                     std::vector<std::pair<PAddr, PAddr>>& out) {
  const std::size_t first = out.size();
  const VAddr end = va + size;
  for (VAddr page = align_down(va, kPageBytes); page < end; page += kPageBytes) {
    if (!pt.mapped(page_of(page))) continue;
    const PAddr base = pt.frame_of(page_of(page)) << kPageShift;
    const PAddr lo = base + (page < va ? page_offset(va) : 0);
    const PAddr hi = base + (page + kPageBytes > end ? page_offset(end - 1) + 1 : kPageBytes);
    if (out.size() > first && out.back().second == lo) {
      out.back().second = hi;
    } else {
      out.emplace_back(lo, hi);
    }
  }
}

/// Capture `spec`'s task program with TraceCapture on a machine of its own
/// (an untimed pass) and translate it. Returns "" or an error.
[[nodiscard]] std::string capture(const RunSpec& spec, Program& prog) {
  const SimConfig cfg = config_for(spec);
  Machine m(cfg);
  AppConfig acfg(spec.size, spec.seed);
  std::string err = WorkloadParams::parse(spec.params, acfg.params);
  if (!err.empty()) return err;
  std::unique_ptr<App> app = WorkloadRegistry::instance().create(spec.app, acfg, &err);
  if (app == nullptr) return err;
  TraceFile tf;
  {
    TraceCapture cap(m);
    app->run(m);
    err = app->verify(m);
    if (!err.empty()) return "capture pass failed verification: " + err;
    err = cap.finish(tf);
    if (!err.empty()) return err;
  }
  const auto& allocs = m.mem().allocations();
  const PageTable& pt = m.mem().page_table();
  for (std::size_t t = 0; t < tf.tasks.size(); ++t) {
    TraceTask& task = tf.tasks[t];
    const CoreId core = static_cast<CoreId>(t % cfg.fabric.cores);
    std::vector<DepSpec> deps;
    std::vector<std::pair<PAddr, PAddr>> ranges;
    for (const TraceDep& d : task.deps) {
      const VAddr va = allocs.at(d.region).base + d.offset;
      deps.push_back({va, d.size, d.kind});
      if (d.size != 0) physical_ranges(pt, va, d.size, ranges);
    }
    prog.deps.push_back(std::move(deps));
    prog.ranges.push_back(std::move(ranges));
    prog.first.push_back(prog.recs.size());
    for (const TraceAccess& a : task.accesses) {
      const VAddr va = allocs.at(a.region).base + a.offset;
      Rec r;
      r.vpage = page_of(va);
      r.paddr = pt.translate(va);
      r.core = core;
      r.repeat = static_cast<std::uint16_t>(a.repeat);
      r.is_write = a.is_write ? 1 : 0;
      prog.recs.push_back(r);
      prog.accesses += a.repeat;
    }
    // Release each task's capture as it is translated: the two copies of a
    // large program never coexist.
    std::vector<TraceAccess>().swap(task.accesses);
  }
  prog.first.push_back(prog.recs.size());
  prog.pt = pt;
  return {};
}

/// Sink for replay results, so no timed call is optimized away.
std::uint64_t g_checksum = 0;

/// Replay every record through a fresh Fabric built from `fc`; under RaCCD
/// each task ends with the NC-line flush its backend performs. Returns the
/// fabric's DRAM request count.
std::uint64_t replay_fabric(const Program& p, const FabricConfig& fc, bool raccd) {
  Fabric fab(fc);
  Cycle now = 0;
  for (std::size_t t = 0; t + 1 < p.first.size(); ++t) {
    CoreId core = 0;
    for (std::size_t i = p.first[t]; i < p.first[t + 1]; ++i) {
      const Rec& r = p.recs[i];
      core = r.core;
      const AccessOutcome o = fab.access(r.core, line_of(r.paddr), r.is_write != 0,
                                         r.nc != 0, now);
      now += o.latency;
      if (r.repeat > 1) fab.count_l1_repeat_hits(r.repeat - 1u);
    }
    if (raccd) now += fab.flush_nc_lines(core, now).cycles;
  }
  g_checksum += now;
  const FabricStats& f = fab.stats();
  return f.dram_row_hits + f.dram_row_misses + f.dram_row_conflicts;
}

/// Per-layer replay of the captured program; adds the layer metrics.
void replay_layers(const RunSpec& spec, Program& p, SpanRecorder& rec, Outcome& out,
                   double& layer_ns_per_record) {
  const SimConfig cfg = config_for(spec);
  const std::uint32_t cores = cfg.fabric.cores;
  const double n = static_cast<double>(std::max<std::size_t>(p.recs.size(), 1));
  const int parent = rec.begin("replay", "bench");

  // runtime: dependence analysis of the captured tasks, repeated (fresh
  // Runtime each time) until 0.3 s or 50 reps; the median rep counts.
  std::vector<double> per_task;
  double spent = 0.0;
  const int rt_span = rec.begin("Runtime::create_task", "runtime");
  while (per_task.empty() || (spent < 0.3 && per_task.size() < 50)) {
    std::vector<TaskDesc> descs(p.deps.size());
    for (std::size_t t = 0; t < descs.size(); ++t) descs[t].deps = p.deps[t];
    Runtime rt(cfg.sched, cores);
    const obs::ScopeTimer timer;
    for (TaskDesc& d : descs) rt.create_task(std::move(d));
    const double s = timer.seconds();
    spent += s;
    per_task.push_back(s * 1e9 / static_cast<double>(std::max<std::size_t>(descs.size(), 1)));
    g_checksum += rt.stats().edges;
  }
  rec.end(rt_span);
  out.add("runtime.ns_per_task", median(per_task), "ns");

  // core: per task, NCRT insert of the registered ranges and one lookup per
  // record. Only RaCCD consults the table, so only RaCCD records take the
  // NC path; on the other modes the figure is what the table would cost on
  // this stream, and the residual below does not subtract it.
  const bool raccd = spec.mode == CohMode::kRaCCD;
  std::vector<Ncrt> ncrts(cores, Ncrt(cfg.raccd.ncrt_entries));
  const double ncrt_s = rec.time("Ncrt::insert+lookup", "core", [&] {
    for (std::size_t t = 0; t + 1 < p.first.size(); ++t) {
      if (p.first[t] == p.first[t + 1]) continue;
      Ncrt& table = ncrts[p.recs[p.first[t]].core];
      table.clear();
      for (const auto& [lo, hi] : p.ranges[t]) table.insert(lo, hi);
      for (std::size_t i = p.first[t]; i < p.first[t + 1]; ++i) {
        const bool nc = table.lookup(p.recs[i].paddr);
        p.recs[i].nc = raccd && nc ? 1 : 0;
        g_checksum += nc ? 1 : 0;
      }
    }
  });
  const double ncrt_ns = ncrt_s * 1e9 / n;
  out.add("core.ns_per_ncrt_lookup", ncrt_ns, "ns");

  // tlb: every record's page through its core's TLB.
  std::vector<Tlb> tlbs(cores, Tlb(cfg.tlb_entries));
  const double tlb_s = rec.time("Tlb::access", "tlb", [&] {
    for (const Rec& r : p.recs) g_checksum += tlbs[r.core].access(r.vpage, p.pt).pframe;
  });
  out.add("tlb.ns_per_access", tlb_s * 1e9 / n, "ns");

  // coherence: the access stream through a fresh Fabric of the workload's
  // own FabricConfig (includes NoC routing and the DRAM model).
  std::uint64_t dram_reqs = 0;
  const double coh_s = rec.time("Fabric::access", "coherence",
                                [&] { dram_reqs = replay_fabric(p, cfg.fabric, raccd); });
  out.add("coherence.ns_per_access", coh_s * 1e9 / n, "ns");

  // dram: the same replay under the other DRAM model; the ddr replay minus
  // the flat-latency one, per controller request, is the controller's host
  // cost (negative values reported as measured). On a workload that runs
  // the flat model it is what the controller would cost on this stream.
  const bool ddr = cfg.fabric.dram.model == DramModel::kDdr;
  RunSpec other = spec;
  other.dram = ddr ? "simple" : "ddr";
  const FabricConfig other_fabric = config_for(other).fabric;
  std::uint64_t other_reqs = 0;
  const double other_s =
      rec.time(ddr ? "Fabric::access[simple]" : "Fabric::access[ddr]", "dram",
               [&] { other_reqs = replay_fabric(p, other_fabric, raccd); });
  const double ddr_reqs = static_cast<double>(ddr ? dram_reqs : other_reqs);
  const double ddr_minus_simple_s = ddr ? coh_s - other_s : other_s - coh_s;
  out.add("dram.ns_per_request", ddr_reqs == 0 ? 0.0 : ddr_minus_simple_s * 1e9 / ddr_reqs, "ns");

  // topo: one route per record from the core to the line's home bank.
  {
    const Fabric fab(cfg.fabric);
    const Topology& topo = fab.topology();
    const double s = rec.time("Topology::route", "topo", [&] {
      for (const Rec& r : p.recs) {
        g_checksum += topo.route(r.core, topo.home_bank(line_of(r.paddr))).latency;
      }
    });
    out.add("topo.ns_per_route", s * 1e9 / n, "ns");
  }
  rec.end(parent);
  // Routing and DRAM run inside Fabric::access, so they are not subtracted
  // again: the residual is what the DES loop and the backend hooks add.
  layer_ns_per_record = (tlb_s + coh_s) * 1e9 / n + (raccd ? ncrt_ns : 0.0);
}

void per_layer(const Workload& w, double seconds, const fs::path& work, Outcome& out) {
  // Untraced reps first: their median App::run is the base of the tracing
  // overhead.
  std::string ref;
  const std::vector<Rep> reps = timed_reps(w.probe, seconds, ref, out);
  if (reps.empty()) return;
  std::vector<double> run_s;
  for (const Rep& r : reps) run_s.push_back(r.run_s);

  SpanRecorder rec;
  const int root = rec.begin(w.name, "bench");
  const int sim_span = rec.begin("simulation", "bench");
  const Rep traced = checked_rep(w.probe, &rec, ref, out);
  rec.end(sim_span);
  if (!traced.ok) return;

  Program prog;
  std::string err;
  rec.time("TraceCapture (untimed pass)", "bench", [&] { err = capture(w.probe, prog); });
  if (!err.empty()) {
    out.fail("capture: " + err);
    return;
  }
  if (prog.accesses != traced.stats.accesses_replayed) {
    out.fail("capture replays a different access count than the simulation");
  }
  double layer_ns = 0.0;
  replay_layers(w.probe, prog, rec, out, layer_ns);

  // Harness, executor and exporters: one cold+warm round of the workload's
  // sweep (the probe alone for single-run workloads), then the cache and
  // export entry points on its results.
  const std::vector<RunSpec> specs = w.sweep.empty() ? std::vector<RunSpec>{w.probe} : w.sweep;
  const int h_span = rec.begin("sweep round", "bench");
  const Round round = harness_round(specs, work / "cache", sweep_jobs(), 1, &rec, out);
  if (w.sweep.empty() && stats_to_text(round.cold.at(0)) != ref) {
    out.fail("sweep result differs from the reps'");
  }
  const fs::path store_dir = work / "store";
  fs::remove_all(store_dir);
  const double store_s = rec.time("cache_store", "harness", [&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!cache_store(store_dir.string(), specs[i].key(), round.cold[i])) {
        out.fail("cache_store failed");
      }
    }
  });
  const double load_s = rec.time("cache_load", "harness", [&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::optional<SimStats> s = cache_load(store_dir.string(), specs[i].key());
      if (!s.has_value() || stats_to_text(*s) != stats_to_text(round.cold[i])) {
        out.fail("cache_load did not return the stored statistics");
      }
    }
  });
  const ResultSet rs(specs, round.cold);
  const double export_s = rec.time("export", "metrics", [&] {
    bool ok = true;
    rec.time("write_csv", "metrics",
             [&] { ok = rs.write_csv((work / "sweep.csv").string()) && ok; });
    rec.time("write_json", "metrics",
             [&] { ok = rs.write_json((work / "sweep.json").string()) && ok; });
    rec.time("append_bench_json", "metrics", [&] {
      ok = rs.append_bench_json((work / "BENCH_perfbench.json").string(), true) && ok;
    });
    if (!ok) out.fail("export failed");
  });
  rec.end(h_span);
  rec.end(root);
  fs::remove_all(store_dir);
  fs::remove_all(work / "cache");

  // Spans out, then checked by the program's own trace validator.
  const fs::path trace_path = work / ("trace-" + w.name + ".json");
  {
    std::ofstream f(trace_path);
    f << rec.chrome_json();
  }
  const obs::TraceValidation v = obs::validate_trace_file(trace_path.string());
  if (!v.ok) out.fail("span trace invalid: " + (v.errors.empty() ? "" : v.errors.front()));

  const double n = static_cast<double>(std::max<std::size_t>(prog.recs.size(), 1));
  const double ns_per_record = traced.run_s * 1e9 / n;
  const double entries = static_cast<double>(specs.size());
  out.add("sim.run_s", traced.run_s, "s");
  out.add("sim.ns_per_record", ns_per_record, "ns");
  out.add("sim.residual_ns_per_record", ns_per_record - layer_ns, "ns");
  out.add("sim.machine_init_s", traced.machine_s, "s");
  out.add("sim.collect_s", traced.collect_s, "s");
  out.add("trace.records", static_cast<double>(prog.recs.size()), "count");
  out.add("trace.rle_ratio", static_cast<double>(prog.accesses) / n, "frac");
  out.add("apps.create_s", traced.create_s, "s");
  out.add("apps.verify_s", traced.verify_s, "s");
  for (Metric& m : layer_counts(traced.stats)) out.metrics.push_back(std::move(m));
  out.add("exec.utilization", round.cold_prof.utilization(), "frac");
  out.add("exec.steals", static_cast<double>(round.cold_prof.steals), "count");
  out.add("exec.preload_s", round.warm_prof.preload_s, "s");
  out.add("harness.cache_store_us", store_s * 1e6 / entries, "us");
  out.add("harness.cache_load_us", load_s * 1e6 / entries, "us");
  out.add("metrics.export_s", export_s, "s");
  out.add("bench.trace_overhead_frac", traced.run_s / median(run_s) - 1.0, "frac");

  std::printf("workload %s: traced run of %s (%zu untraced reps)\n", w.name.c_str(),
              w.probe.key().c_str(), reps.size());
  std::printf("  spans: %s (%llu spans, validated)\n", trace_path.string().c_str(),
              static_cast<unsigned long long>(v.spans));
  for (const auto& [layer, us] : rec.self_us_by_layer()) {
    std::printf("  self time %-10s %12.3f ms\n", layer.c_str(), us / 1e3);
  }
  std::printf("  stats digest %016llx, replay checksum %016llx\n",
              static_cast<unsigned long long>(digest_of({traced.stats})),
              static_cast<unsigned long long>(g_checksum));
}

// -- Output -------------------------------------------------------------------

void print_result(const Outcome& out) {
  std::printf("metrics:\n");
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = strprintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // A non-finite value fails the run (see run()); it prints as null.
    const std::string value = std::isfinite(m.value) ? strprintf("%.17g", m.value) : "null";
    json += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                      m.name.c_str(), value.c_str(), m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n  workloads: dir_pressure raccd_numa_ddr "
               "service_open_loop paper_grid_sweep\n",
               msg);
  std::exit(2);
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage("expected --key value pairs");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) usage("expected --key value pairs");
  for (const char* k : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (args.count(k) == 0) usage(strprintf("missing --%s", k).c_str());
  }
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0' || args["seed"].empty()) usage("--seed must be a whole number");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") usage("--trace must be 0 or 1");
  const std::optional<Workload> w = make_workload(args["workload"], seed);
  if (!w.has_value()) usage(strprintf("unknown workload '%s'", args["workload"].c_str()).c_str());
  const fs::path work = fs::path(args["work-dir"]) / w->name;
  fs::create_directories(work);

  Outcome out;
  if (args["trace"] == "1") {
    per_layer(*w, seconds, work, out);
  } else {
    if (w->sweep.empty()) {
      end_to_end_single(*w, seconds, work, out);
    } else {
      end_to_end_sweep(*w, seconds, work, out);
    }
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  for (const Metric& m : out.metrics) {
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) || !std::isfinite(m.value)) {
      out.fail("malformed metric: " + m.name + " [" + m.unit + "]");
    }
  }
  if (out.attempted == 0) out.fail("no operation was attempted");
  print_result(out);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
