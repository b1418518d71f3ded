// Private-hit run-ahead differential suite. The machine replays a core's
// TLB-hit, NC-L1-hit records ahead of the global event order whenever the
// mode keeps NC lines private and nothing observes that order (DESIGN.md,
// "Private-hit run-ahead"). Turning the coherence checker on is one of the
// guards, so a checker run replays strictly in order: every registered
// workload at tiny, under RaCCD and WbNC, on five machine axes, runs once
// each way and the two SimStats must agree field for field while the checker
// scans clean. PT, FullCoh and the ADR axis run the same comparison with both
// runs in order, so it fails if their hits were ever let run ahead; under
// FullCoh every line is coherent, so its checker run also covers the
// directory's tree-PLRU victims and the recalls they send.
#include <gtest/gtest.h>

#include <cctype>
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
};

constexpr Axis kAxes[] = {
    {"flat", "flat", "simple", AllocPolicy::kContiguous},
    {"numa2_firsttouch", "numa2", "simple", AllocPolicy::kFirstTouch},
    {"numa2_ddr", "numa2", "ddr", AllocPolicy::kContiguous},
    // A one-entry NCRT overflows, so RaCCD fetches most lines coherently, and
    // a 1:256 directory recalls them from under their holders: a coherent hit
    // replayed out of order would land before the recall that should have
    // turned it into a miss.
    {"flat_dir256_ncrt1", "flat", "simple", AllocPolicy::kContiguous, 256, 1},
    // ADR polls the directory after every record at that record's clock, so
    // it must keep both runs in order.
    {"flat_dir8_adr", "flat", "simple", AllocPolicy::kContiguous, 8, 32, true},
};

struct Case {
  std::string workload;
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
  spec.app = workload;
  spec.size = SizeClass::kTiny;
  spec.mode = mode;
  spec.topo = axis.topo;
  spec.dram = axis.dram;
  spec.alloc = axis.alloc;
  spec.dir_ratio = axis.dir_ratio;
  spec.ncrt_entries = axis.ncrt_entries;
  spec.adr = axis.adr;
  return config_for(spec);
}

Outcome run(const std::string& workload, const SimConfig& cfg) {
  Machine m(cfg);
  std::string error;
  auto app = WorkloadRegistry::instance().create(workload, AppConfig{SizeClass::kTiny, 42},
                                                 &error);
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

  // The two runs took different paths through the event loop, except where
  // a guard keeps both in order (PT's NC lines are shared; FullCoh has no NC
  // lines; ADR)...
  EXPECT_FALSE(in_order.ran_ahead);
  EXPECT_EQ(ahead.ran_ahead,
            c.mode != CohMode::kPT && c.mode != CohMode::kFullCoh && !c.axis->adr);
  // ...both computed the right answer, coherently...
  EXPECT_EQ(in_order.verify, "");
  EXPECT_EQ(ahead.verify, "");
  for (const auto& v : in_order.violations) ADD_FAILURE() << "checker: " << v;
  // ...and every stat matches, field by field.
  const auto want = lines_of(stats_to_text(in_order.stats));
  const auto got = lines_of(stats_to_text(ahead.stats));
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "in-order vs run-ahead";
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::string& w : WorkloadRegistry::instance().names()) {
    for (const CohMode mode :
         {CohMode::kRaCCD, CohMode::kWbNC, CohMode::kPT, CohMode::kFullCoh}) {
      for (const Axis& axis : kAxes) cases.push_back(Case{w, mode, &axis});
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
  EXPECT_FALSE(Machine(config_of("jacobi", CohMode::kFullCoh, kAxes[0])).runs_ahead());
  EXPECT_FALSE(Machine(config_of("jacobi", CohMode::kPT, kAxes[0])).runs_ahead());

  SimConfig series = base;
  series.series.interval = 1000;
  EXPECT_FALSE(Machine(series).runs_ahead());

  SimConfig sampled = base;
  ASSERT_EQ(sampled.apply_sampling("8/2"), "");
  EXPECT_FALSE(Machine(sampled).runs_ahead());

  SimConfig fractional_energy = base;
  fractional_energy.fabric.energy.l1_access_pj = 10.5;
  EXPECT_FALSE(Machine(fractional_energy).runs_ahead());
}

}  // namespace
}  // namespace raccd
