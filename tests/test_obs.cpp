// Observability layer: simulated-time trace recording (TraceSink), the
// structural validator, category filtering, bounded-buffer drop accounting,
// the zero-overhead-when-off byte-identity contract, and the host-side sweep
// profile's -jN merge determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "raccd/apps/registry.hpp"
#include "raccd/harness/grid.hpp"
#include "raccd/metrics/emit.hpp"
#include "raccd/obs/profiler.hpp"
#include "raccd/obs/trace_sink.hpp"
#include "raccd/obs/trace_validate.hpp"
#include "raccd/sim/machine.hpp"

namespace raccd {
namespace {

/// Run one tiny registry workload on a `cores`-wide scaled machine with an
/// optional trace sink attached; returns the collected stats.
SimStats run_traced(const std::string& workload, CohMode mode, std::uint32_t cores,
                    obs::TraceSink* sink) {
  SimConfig cfg = SimConfig::scaled(mode);
  cfg.fabric.cores = cores;
  cfg.fabric.topo.width = cores;  // flat mesh: geometry must match core count
  cfg.fabric.topo.height = 1;
  Machine m(cfg);
  if (sink != nullptr) m.set_obs_trace(sink);
  std::string err;
  const std::unique_ptr<App> app = WorkloadRegistry::instance().create(
      workload, AppConfig(SizeClass::kTiny, 42), &err);
  EXPECT_NE(app, nullptr) << err;
  app->run(m);
  EXPECT_EQ(app->verify(m), "");
  return m.collect();
}

TEST(TraceFilter, ParsesCategoryLists) {
  std::string err;
  EXPECT_EQ(obs::parse_trace_filter("task,coh", &err), 0b00011u) << err;
  EXPECT_EQ(obs::parse_trace_filter("dram,svc,noc", &err), 0b11100u) << err;
  EXPECT_EQ(obs::parse_trace_filter("all", &err), obs::kAllCats) << err;
  // "none" is a valid empty mask (armed-but-off sink), not a parse error.
  err.clear();
  EXPECT_EQ(obs::parse_trace_filter("none", &err), 0u);
  EXPECT_EQ(err, "");
  EXPECT_EQ(obs::parse_trace_filter("", &err), 0u);
  EXPECT_NE(err.find("empty"), std::string::npos) << err;
  EXPECT_EQ(obs::parse_trace_filter("task,bogus", &err), 0u);
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

TEST(TraceSink, InternsNamesAndFiltersCategories) {
  obs::TraceConfig cfg;
  cfg.categories = 1u << static_cast<unsigned>(obs::TraceCat::kTask);
  obs::TraceSink sink(cfg);
  EXPECT_TRUE(sink.wants(obs::TraceCat::kTask));
  EXPECT_FALSE(sink.wants(obs::TraceCat::kDram));
  const obs::NameId a = sink.intern("compute");
  EXPECT_EQ(sink.intern("compute"), a);  // stable
  EXPECT_EQ(sink.name_of(a), "compute");
  // Events in filtered-out categories are refused at admission, not counted
  // as drops (the site should not even have called in — this is the backstop).
  sink.instant(obs::TraceCat::kDram, obs::kPidDram, 0, a, 10);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.dropped_total(), 0u);
  sink.instant(obs::TraceCat::kTask, obs::kPidCores, 0, a, 10);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].ph, 'i');
  EXPECT_EQ(sink.events()[0].ts, 10u);
}

TEST(TraceSink, BoundedBufferDropsAreCountedAndDeclared) {
  obs::TraceConfig cfg;
  cfg.max_events = 4;
  obs::TraceSink sink(cfg);
  const obs::NameId n = sink.intern("tick");
  for (std::uint64_t t = 0; t < 10; ++t) {
    sink.instant(obs::TraceCat::kTask, obs::kPidCores, 0, n, t);
  }
  EXPECT_EQ(sink.events().size(), 4u);  // drop-newest: first 4 retained
  EXPECT_EQ(sink.events().back().ts, 3u);
  EXPECT_EQ(sink.dropped(obs::TraceCat::kTask), 6u);
  EXPECT_EQ(sink.dropped_total(), 6u);
  // The export declares the drops and the validator accepts the capped trace.
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"dropped_total\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_task\":6"), std::string::npos) << json;
  const obs::TraceValidation v = obs::validate_trace_json(json);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.dropped, 6u);
  EXPECT_EQ(v.events, 4u);
}

TEST(TraceValidate, AcceptsBalancedSpansAndRejectsImbalance) {
  // Balanced B/E + X + instant: ok, spans counted per kind.
  obs::TraceSink good;
  const obs::NameId n = good.intern("work");
  good.begin(obs::TraceCat::kTask, obs::kPidCores, 0, n, 10);
  good.end(obs::TraceCat::kTask, obs::kPidCores, 0, n, 20);
  good.complete(obs::TraceCat::kDram, obs::kPidDram, 1, n, 5, 3);
  good.instant(obs::TraceCat::kCoh, obs::kPidCoherence, 0, n, 12);
  const obs::TraceValidation ok = obs::validate_trace_json(good.to_json());
  EXPECT_TRUE(ok.ok) << (ok.errors.empty() ? "" : ok.errors.front());
  EXPECT_EQ(ok.spans, 2u);
  EXPECT_EQ(ok.tracks, 3u);

  // Unclosed B with no declared drops: structural error.
  obs::TraceSink open_span;
  open_span.begin(obs::TraceCat::kTask, obs::kPidCores, 0, open_span.intern("w"), 10);
  const obs::TraceValidation bad = obs::validate_trace_json(open_span.to_json());
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.errors.empty());

  // E before B can never be valid, drops or not.
  const obs::TraceValidation stray = obs::validate_trace_json(
      "{\"traceEvents\":[{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":5,"
      "\"name\":\"w\",\"cat\":\"task\"}]}");
  EXPECT_FALSE(stray.ok);

  // Malformed documents are errors, not crashes.
  EXPECT_FALSE(obs::validate_trace_json("not json").ok);
  EXPECT_FALSE(obs::validate_trace_json("{\"traceEvents\":42}").ok);
}

TEST(MachineTrace, TwoCoreJacobiTraceIsStructurallyValid) {
  obs::TraceSink sink;
  const SimStats s = run_traced("jacobi", CohMode::kRaCCD, 2, &sink);
  EXPECT_GT(s.tasks, 0u);
  EXPECT_EQ(sink.dropped_total(), 0u);
  ASSERT_FALSE(sink.events().empty());

  // Task spans must appear on both cores; each core's begin timestamps must
  // advance in simulated time (global order is not promised — service spans,
  // for one, are reconstructed at collect()).
  bool core_seen[2] = {false, false};
  std::uint64_t last_b_ts[2] = {0, 0};
  bool per_core_monotone = true;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.pid != obs::kPidCores || e.ph != 'B') continue;
    const std::uint32_t core = e.tid % 2;
    core_seen[core] = true;
    if (e.ts < last_b_ts[core]) per_core_monotone = false;
    last_b_ts[core] = e.ts;
  }
  EXPECT_TRUE(core_seen[0]);
  EXPECT_TRUE(core_seen[1]);
  EXPECT_TRUE(per_core_monotone);

  // RaCCD mode must contribute coherence events (register instants).
  std::size_t coh_events = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.cat == static_cast<std::uint8_t>(obs::TraceCat::kCoh)) ++coh_events;
  }
  EXPECT_GT(coh_events, 0u);

  const obs::TraceValidation v = obs::validate_trace_json(sink.to_json());
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_GT(v.spans, 0u);
  EXPECT_GE(v.tracks, 2u);
  EXPECT_GT(v.metadata, 0u);  // track names for Perfetto
}

TEST(MachineTrace, ServiceSpansLinkByRequestId) {
  obs::TraceSink sink;
  const SimStats s = run_traced("service", CohMode::kFullCoh, 16, &sink);
  ASSERT_EQ(s.service.requests, 24u);  // tiny default

  // Every request gets its own track (tid = request id) with balanced
  // begin/end pairs for its queueing and service phases.
  std::set<std::uint32_t> request_ids;
  std::uint64_t begins = 0, ends = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.pid != obs::kPidService) continue;
    request_ids.insert(e.tid);
    if (e.ph == 'B') ++begins;
    if (e.ph == 'E') ++ends;
  }
  EXPECT_EQ(request_ids.size(), 24u);
  EXPECT_EQ(begins, ends);
  EXPECT_GE(begins, 2u * 24u);  // at least queueing + service per request

  const obs::TraceValidation v = obs::validate_trace_json(sink.to_json());
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
}

TEST(MachineTrace, AttachingASinkNeverChangesStats) {
  // The zero-overhead-when-off contract, exercised from the other side:
  // recording is pure observation, so the full bench payload — every metric
  // the emitters export — is byte-identical with and without a sink.
  for (const CohMode mode : {CohMode::kFullCoh, CohMode::kRaCCD}) {
    obs::TraceSink sink;
    const SimStats with = run_traced("jacobi", mode, 2, &sink);
    const SimStats without = run_traced("jacobi", mode, 2, nullptr);
    EXPECT_FALSE(sink.events().empty());
    EXPECT_EQ(bench_metrics_json(with), bench_metrics_json(without))
        << to_string(mode);
  }
}

TEST(SweepProfile, MergeIsDeterministicAcrossJobCounts) {
  const std::string dir = "test_obs_profile_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<RunSpec> specs;
  for (const CohMode mode :
       {CohMode::kFullCoh, CohMode::kPT, CohMode::kRaCCD, CohMode::kWbNC}) {
    RunSpec spec;
    spec.size = SizeClass::kTiny;
    spec.mode = mode;
    EXPECT_EQ(spec.set_workload_ref("histo"), "");
    specs.push_back(spec);
  }
  const auto bench_with_jobs = [&](unsigned jobs, const std::string& path) {
    RunOptions opts;
    opts.jobs = jobs;
    opts.use_cache = false;
    const ResultSet rs = ResultSet::run(specs, opts);
    EXPECT_EQ(rs.size(), specs.size());
    EXPECT_TRUE(rs.append_bench_json(path, /*include_profile=*/true));
    // The published profile reflects this sweep.
    const obs::SweepProfile& p = obs::last_sweep_profile();
    EXPECT_EQ(p.executed, specs.size());
    EXPECT_EQ(p.failed, 0u);
    EXPECT_EQ(p.jobs, jobs);
    EXPECT_GT(p.wall_s, 0.0);
  };
  bench_with_jobs(1, dir + "/j1.json");
  bench_with_jobs(4, dir + "/j4.json");

  // Both logs carry a profile entry; everything else is byte-identical.
  const auto slurp_without_profile = [](const std::string& path, bool* had) {
    std::ifstream in(path);
    std::ostringstream kept;
    std::string line;
    *had = false;
    while (std::getline(in, line)) {
      if (line.find("\"__profile__\"") != std::string::npos) {
        *had = true;
        continue;
      }
      kept << line << "\n";
    }
    return kept.str();
  };
  bool j1_had = false, j4_had = false;
  const std::string j1 = slurp_without_profile(dir + "/j1.json", &j1_had);
  const std::string j4 = slurp_without_profile(dir + "/j4.json", &j4_had);
  EXPECT_TRUE(j1_had);
  EXPECT_TRUE(j4_had);
  EXPECT_EQ(j1, j4);

  // The profile entry itself serializes with the documented sorted keys.
  const std::string fields = obs::last_sweep_profile().json_fields();
  EXPECT_LT(fields.find("\"cached\""), fields.find("\"executed\""));
  EXPECT_NE(fields.find("\"sim_s\""), std::string::npos);
  EXPECT_NE(fields.find("\"utilization\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace raccd
