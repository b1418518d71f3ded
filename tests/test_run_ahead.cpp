// Conservative-lookahead differential suite. The machine runs a core's pure
// hits (TLB hit, L1 hit, and a read or a store to an E, M or NC line) outside
// the global event order, and catches a core up whenever another core's
// event touches its L1 or TLB (DESIGN.md, "Conservative lookahead").
// Turning the coherence checker on is one of the guards, so a checker run
// replays strictly in order: every registered workload at tiny, under all
// four modes, on eleven machine axes, runs once each way and the two SimStats
// must agree field for field while the checker scans clean. The ADR axis
// runs the same comparison with both runs in order. Under FullCoh every line
// is coherent, so recalls, owner probes and sharer invalidations reach cores
// with pending hits; PT's recovery flushes and shoots down a previous owner's
// page; a one-entry NCRT makes most RaCCD lines coherent too.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "raccd/apps/registry.hpp"
#include "raccd/coherence/checker.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"

namespace raccd {
namespace {

struct Axis {
  const char* name;
  const char* topo;
  const char* dram;
  AllocPolicy alloc;
  std::uint32_t dir_ratio = 1;
  std::uint32_t ncrt_entries = 32;
  bool adr = false;
  const char* sampling = "";
};

constexpr Axis kAxes[] = {
    {"flat", "flat", "simple", AllocPolicy::kContiguous},
    {"numa2_firsttouch", "numa2", "simple", AllocPolicy::kFirstTouch},
    {"numa2_ddr", "numa2", "ddr", AllocPolicy::kContiguous},
    {"numa4_interleave", "numa4", "simple", AllocPolicy::kInterleave},
    {"flat_ddr_open", "flat", "ddr-open", AllocPolicy::kContiguous},
    {"flat_ddr_closed", "flat", "ddr-closed", AllocPolicy::kContiguous},
    // A one-entry NCRT overflows, so RaCCD fetches most lines coherently, and
    // a 1:256 directory recalls them from under their holders: a coherent hit
    // run out of order would land before the recall that should have turned
    // it into a miss.
    {"flat_dir256_ncrt1", "flat", "simple", AllocPolicy::kContiguous, 256, 1},
    // ADR polls the directory after every record at that record's clock, so
    // it must keep both runs in order.
    {"flat_dir8_adr", "flat", "simple", AllocPolicy::kContiguous, 8, 32, true},
    // Sampled runs count each batch into its task's phase bucket and window,
    // and catch every core up before a far fast-forward reads the measured
    // miss rate.
    {"flat_sampled", "flat", "simple", AllocPolicy::kContiguous, 1, 32, false, "8/2"},
    {"flat_ddr_sampled", "flat", "ddr", AllocPolicy::kContiguous, 1, 32, false, "8/2"},
    // A 64-task period leaves tasks more than two per core away from the
    // next detailed block: the far fast-forward tier.
    {"flat_sampled_far", "flat", "simple", AllocPolicy::kContiguous, 1, 32, false, "64/2"},
};

/// Workloads beyond each registered one at its defaults: an open-loop
/// service at a load low enough that every core falls asleep between
/// arrivals, so releases wake cores at idle-gap instants, and a 160-task
/// fork-join, enough tasks for every sampled phase.
constexpr const char* kExtraWorkloads[] = {"service:requests=64,load=0.05",
                                           "synthetic:depth=32"};

struct Case {
  std::string workload;  ///< workload reference: name[:key=value,...]
  CohMode mode;
  const Axis* axis;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << " " << to_string(c.mode) << " " << c.axis->name;
}

struct Outcome {
  SimStats stats;
  bool ran_ahead = false;
  std::string verify;
  std::vector<std::string> violations;
};

SimConfig config_of(const std::string& workload, CohMode mode, const Axis& axis) {
  RunSpec spec;
  EXPECT_EQ(spec.set_workload_ref(workload), "");
  spec.size = SizeClass::kTiny;
  spec.mode = mode;
  spec.topo = axis.topo;
  spec.dram = axis.dram;
  spec.alloc = axis.alloc;
  spec.dir_ratio = axis.dir_ratio;
  spec.ncrt_entries = axis.ncrt_entries;
  spec.adr = axis.adr;
  spec.sampling = axis.sampling;
  return config_for(spec);
}

Outcome run(const std::string& workload, const SimConfig& cfg) {
  Machine m(cfg);
  RunSpec spec;
  EXPECT_EQ(spec.set_workload_ref(workload), "");
  AppConfig acfg{SizeClass::kTiny, 42};
  std::string error = WorkloadParams::parse(spec.params, acfg.params);
  EXPECT_EQ(error, "");
  auto app = WorkloadRegistry::instance().create(spec.app, acfg, &error);
  EXPECT_NE(app, nullptr) << error;
  Outcome out;
  if (app == nullptr) return out;
  app->run(m);
  out.verify = app->verify(m);
  out.violations = CoherenceChecker::scan(m.fabric());
  out.ran_ahead = m.runs_ahead();
  out.stats = m.collect();
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

class RunAhead : public ::testing::TestWithParam<Case> {};

TEST_P(RunAhead, MatchesInOrderCheckedReplay) {
  const Case& c = GetParam();
  SimConfig cfg = config_of(c.workload, c.mode, *c.axis);
  cfg.enable_checker = true;
  const Outcome in_order = run(c.workload, cfg);
  cfg.enable_checker = false;
  const Outcome ahead = run(c.workload, cfg);

  // The two runs took different paths through the event loop, in every
  // mode, except where ADR keeps both in order...
  EXPECT_FALSE(in_order.ran_ahead);
  EXPECT_EQ(ahead.ran_ahead, !c.axis->adr);
  // ...both computed the right answer, coherently...
  EXPECT_EQ(in_order.verify, "");
  EXPECT_EQ(ahead.verify, "");
  for (const auto& v : in_order.violations) ADD_FAILURE() << "checker: " << v;
  // ...and every stat matches, field by field.
  const auto want = lines_of(stats_to_text(in_order.stats));
  const auto got = lines_of(stats_to_text(ahead.stats));
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "in-order vs lookahead";
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  std::vector<std::string> workloads = WorkloadRegistry::instance().names();
  workloads.insert(workloads.end(), std::begin(kExtraWorkloads), std::end(kExtraWorkloads));
  for (const std::string& w : workloads) {
    // The harness refuses to sample open-loop service runs.
    const bool service = w.rfind("service", 0) == 0;
    for (const CohMode mode :
         {CohMode::kRaCCD, CohMode::kWbNC, CohMode::kPT, CohMode::kFullCoh}) {
      for (const Axis& axis : kAxes) {
        if (service && *axis.sampling != '\0') continue;
        cases.push_back(Case{w, mode, &axis});
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string n = info.param.workload + "_" + to_string(info.param.mode) + "_" +
                  info.param.axis->name;
  for (char& ch : n) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(EveryWorkload, RunAhead, ::testing::ValuesIn(all_cases()),
                         case_name);

TEST(RunAheadGuards, RegistryIsNotEmpty) {
  EXPECT_GE(WorkloadRegistry::instance().names().size(), 10u);
}

// The remaining guards, checked on a constructed machine.
TEST(RunAheadGuards, ObserversOfGlobalOrderDisableIt) {
  const SimConfig base = config_of("jacobi", CohMode::kRaCCD, kAxes[0]);
  EXPECT_TRUE(Machine(base).runs_ahead());
  EXPECT_TRUE(Machine(config_of("jacobi", CohMode::kFullCoh, kAxes[0])).runs_ahead());
  EXPECT_TRUE(Machine(config_of("jacobi", CohMode::kPT, kAxes[0])).runs_ahead());
  EXPECT_TRUE(Machine(config_of("jacobi", CohMode::kWbNC, kAxes[0])).runs_ahead());

  SimConfig adr = base;
  adr.adr.enabled = true;
  EXPECT_FALSE(Machine(adr).runs_ahead());

  SimConfig checked = base;
  checked.enable_checker = true;
  EXPECT_FALSE(Machine(checked).runs_ahead());

  SimConfig series = base;
  series.series.interval = 1000;
  EXPECT_FALSE(Machine(series).runs_ahead());

  // Sampled runs look ahead in their detailed tasks.
  SimConfig sampled = base;
  ASSERT_EQ(sampled.apply_sampling("8/2"), "");
  EXPECT_TRUE(Machine(sampled).runs_ahead());
}

// Remote touches on a line inside the target's window. A holder task keeps
// touching one line for thousands of cycles, a stretch of pure hits, while
// independent tasks on other cores read or write the same line: each
// scenario reaches one hook site with the touched line among the holder's
// pending records, which the registered workloads (their tasks ordered by
// dependences) seldom do.
enum class Touch {
  kOwnerProbe,       ///< a read miss downgrades the holder's M copy
  kSharerWriteMiss,  ///< a write miss invalidates two S holders
  kUpgrade,          ///< a store to an S copy invalidates the other holder
};

Outcome run_touch(Touch touch, CohMode mode, bool checker) {
  SimConfig cfg = SimConfig::scaled(mode);
  cfg.enable_checker = checker;
  Machine m(cfg);
  const VAddr line = m.mem().alloc(kLineBytes, kLineBytes, "shared");
  const auto spawn = [&m](const char* name, std::function<void(TaskContext&)> body) {
    TaskDesc d;
    d.name = name;
    d.body = std::move(body);
    m.spawn(std::move(d));
  };
  const bool holder_writes = touch == Touch::kOwnerProbe;
  const auto holder = [line, holder_writes](TaskContext& ctx) {
    for (std::uint32_t i = 0; i < 300; ++i) {
      ctx.compute(8);
      if (holder_writes) {
        ctx.store<std::uint32_t>(line, i);
      } else {
        (void)ctx.load<std::uint32_t>(line);
      }
    }
  };
  spawn("holder", holder);
  if (touch == Touch::kSharerWriteMiss) spawn("second holder", holder);
  spawn("toucher", [line, touch](TaskContext& ctx) {
    if (touch == Touch::kUpgrade) (void)ctx.load<std::uint32_t>(line + 4);
    ctx.compute(400);
    if (touch == Touch::kOwnerProbe) {
      (void)ctx.load<std::uint32_t>(line + 4);
    } else if (touch == Touch::kSharerWriteMiss) {
      ctx.store<std::uint32_t>(line + 4, 7);
    } else {
      // Keep storing: each holder miss downgrades this copy, so the next
      // store upgrades again. How often depends on when the holder misses.
      for (std::uint32_t i = 0; i < 40; ++i) {
        ctx.store<std::uint32_t>(line + 4, i);
        ctx.compute(60);
      }
    }
  });
  m.taskwait();
  Outcome out;
  out.violations = CoherenceChecker::scan(m.fabric());
  out.ran_ahead = m.runs_ahead();
  out.stats = m.collect();
  return out;
}

TEST(RemoteTouch, CatchesTheHolderUpBeforeTheTouch) {
  for (const Touch touch : {Touch::kOwnerProbe, Touch::kSharerWriteMiss, Touch::kUpgrade}) {
    for (const CohMode mode : {CohMode::kFullCoh, CohMode::kRaCCD}) {
      SCOPED_TRACE(std::string(to_string(mode)) + " touch " +
                   std::to_string(static_cast<int>(touch)));
      const Outcome in_order = run_touch(touch, mode, /*checker=*/true);
      const Outcome ahead = run_touch(touch, mode, /*checker=*/false);
      EXPECT_TRUE(ahead.ran_ahead);
      for (const auto& v : in_order.violations) ADD_FAILURE() << "checker: " << v;
      // Each scenario still reaches its hook site.
      const FabricStats& f = in_order.stats.fabric;
      switch (touch) {
        case Touch::kOwnerProbe: EXPECT_EQ(f.owner_probes, 1u); break;
        case Touch::kSharerWriteMiss:
          EXPECT_EQ(f.upgrades, 0u);
          EXPECT_EQ(f.l1_invals_sharer, 2u);
          break;
        case Touch::kUpgrade:
          EXPECT_GT(f.upgrades, 1u);
          EXPECT_GT(f.l1_invals_sharer, 1u);
          break;
      }
      const auto want = lines_of(stats_to_text(in_order.stats));
      const auto got = lines_of(stats_to_text(ahead.stats));
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "in-order vs lookahead";
      }
    }
  }
}

// A far fast-forwarded task estimates its misses from the measured windows'
// accesses as of its own step, while a measured task may still be running
// ahead on pure hits: sampled 64/1/1 puts task 1 in the measured window and
// tasks 18 to 32 in the far tier, and task 1 outlasts them all.
Outcome run_far_ffwd(bool checker) {
  SimConfig cfg = SimConfig::scaled(CohMode::kFullCoh);
  EXPECT_EQ(cfg.apply_sampling("64/1/1"), "");
  cfg.enable_checker = checker;
  Machine m(cfg);
  const VAddr data = m.mem().alloc(64 * kLineBytes, kLineBytes, "data");
  for (std::uint32_t t = 0; t < 40; ++t) {
    TaskDesc d;
    d.name = "task";
    const std::uint32_t reads = t == 1 ? 3000 : 20;
    d.body = [data, t, reads](TaskContext& ctx) {
      for (std::uint32_t i = 0; i < reads; ++i) {
        ctx.compute(4);
        (void)ctx.load<std::uint32_t>(data + (t % 64) * kLineBytes + (i % 2) * 4);
      }
    };
    m.spawn(std::move(d));
  }
  m.taskwait();
  Outcome out;
  out.violations = CoherenceChecker::scan(m.fabric());
  out.ran_ahead = m.runs_ahead();
  out.stats = m.collect();
  return out;
}

TEST(SampledLookahead, FarFastForwardCountsMeasuredHitsUpToItsStep) {
  const Outcome in_order = run_far_ffwd(/*checker=*/true);
  const Outcome ahead = run_far_ffwd(/*checker=*/false);
  EXPECT_TRUE(ahead.ran_ahead);
  for (const auto& v : in_order.violations) ADD_FAILURE() << "checker: " << v;
  EXPECT_EQ(in_order.stats.sampling.measured_tasks, 1u);
  EXPECT_GE(in_order.stats.sampling.ffwd_tasks, 15u);
  const auto want = lines_of(stats_to_text(in_order.stats));
  const auto got = lines_of(stats_to_text(ahead.stats));
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "in-order vs lookahead";
  }
}

// The engine's work counters are a function of the spec alone, and every
// replayed record is counted once: as a pure hit or as an ordered record.
TEST(EngineWork, DeterministicAndCoversEveryRecord) {
  for (const CohMode mode : {CohMode::kFullCoh, CohMode::kPT, CohMode::kRaCCD}) {
    for (const char* workload : {"jacobi", "synthetic"}) {
      SCOPED_TRACE(std::string(workload) + " " + to_string(mode));
      RunSpec spec;
      spec.app = workload;
      spec.size = SizeClass::kTiny;
      spec.mode = mode;
      spec.dir_ratio = 8;
      obs::RunProfile first, second;
      ASSERT_TRUE(run_one_checked(spec, nullptr, nullptr, {}, {}, &first).has_value());
      ASSERT_TRUE(run_one_checked(spec, nullptr, nullptr, {}, {}, &second).has_value());
      obs::EngineWork::for_each_field([&](const char* name, auto member) {
        EXPECT_EQ(first.work.*member, second.work.*member) << name;
      });

      for (const bool checker : {false, true}) {
        SimConfig cfg = config_for(spec);
        cfg.enable_checker = checker;
        Machine m(cfg);
        std::uint64_t records = 0;
        m.set_trace_sink(
            [&records](const TaskNode&, const AccessTrace& t) { records += t.records().size(); });
        auto app = WorkloadRegistry::instance().create(workload, AppConfig{SizeClass::kTiny, 42});
        ASSERT_NE(app, nullptr);
        app->run(m);
        const obs::EngineWork& w = m.engine_work();
        EXPECT_EQ(w.pure_hits + w.ordered_records, records);
        if (checker) {
          // In order: every record is an ordered step; nothing is peeked.
          EXPECT_EQ(w.pure_hits, 0u);
          EXPECT_EQ(w.peeked, 0u);
        } else {
          EXPECT_EQ(w.ordered_events, first.work.ordered_events);
          EXPECT_GT(w.pure_hits, w.ordered_records);
        }
        EXPECT_GE(w.ordered_events, w.ordered_records);
      }
    }
  }
}

}  // namespace
}  // namespace raccd
