// Coherent-path protocol tests: MESI state transitions, directory tracking,
// inclusivity recalls, writebacks, and the value-version checker.
#include <gtest/gtest.h>

#include "fabric_test_util.hpp"

#include <algorithm>

#include "raccd/common/bits.hpp"
#include "raccd/common/rng.hpp"

namespace raccd {
namespace {

using testutil::line_in_bank;
using testutil::small_fabric_config;

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : checker_(true), fabric_(small_fabric_config(), &checker_) {}

  AccessOutcome load(CoreId c, LineAddr l) { return fabric_.access(c, l, false, false, t_++); }
  AccessOutcome store(CoreId c, LineAddr l) { return fabric_.access(c, l, true, false, t_++); }

  void expect_clean_scan() {
    const auto violations = CoherenceChecker::scan(fabric_);
    for (const auto& v : violations) ADD_FAILURE() << v;
  }

  CoherenceChecker checker_;
  Fabric fabric_;
  Cycle t_ = 0;
};

TEST_F(FabricTest, ColdLoadGrantsExclusive) {
  const LineAddr l = line_in_bank(1, 3);
  const auto out = load(0, l);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_FALSE(out.llc_hit);
  const L1Payload* line = fabric_.l1(0).find(l);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->coh, Mesi::kExclusive);
  const DirPayload* e = fabric_.dir(1).find(l);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->excl, 0u);
  EXPECT_EQ(e->sharers, 1u);
  EXPECT_EQ(fabric_.stats().mem_reads, 1u);
  expect_clean_scan();
}

TEST_F(FabricTest, SecondReaderDowngradesToShared) {
  const LineAddr l = line_in_bank(0, 5);
  load(0, l);
  const auto out = load(1, l);
  EXPECT_TRUE(out.llc_hit);
  EXPECT_EQ(fabric_.l1(0).find(l)->coh, Mesi::kShared);
  EXPECT_EQ(fabric_.l1(1).find(l)->coh, Mesi::kShared);
  const DirPayload* e = fabric_.dir(0).find(l);
  EXPECT_EQ(e->excl, kNoCore);
  EXPECT_EQ(e->sharers, 0b11u);
  EXPECT_EQ(fabric_.stats().owner_probes, 1u);
  EXPECT_EQ(fabric_.stats().mem_reads, 1u);  // served from LLC
  expect_clean_scan();
}

TEST_F(FabricTest, StoreHitOnExclusiveSilentlyUpgrades) {
  const LineAddr l = line_in_bank(2, 9);
  load(0, l);
  const auto out = store(0, l);
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(fabric_.l1(0).find(l)->coh, Mesi::kModified);
  EXPECT_TRUE(fabric_.l1(0).find(l)->dirty);
  EXPECT_EQ(fabric_.stats().upgrades, 0u);  // silent E->M, no dir traffic
  expect_clean_scan();
}

TEST_F(FabricTest, StoreHitOnSharedUpgradesAndInvalidates) {
  const LineAddr l = line_in_bank(3, 1);
  load(0, l);
  load(1, l);
  load(2, l);
  const auto out = store(1, l);
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(fabric_.stats().upgrades, 1u);
  EXPECT_EQ(fabric_.l1(1).find(l)->coh, Mesi::kModified);
  EXPECT_EQ(fabric_.l1(0).find(l), nullptr);
  EXPECT_EQ(fabric_.l1(2).find(l), nullptr);
  const DirPayload* e = fabric_.dir(3).find(l);
  EXPECT_EQ(e->excl, 1u);
  EXPECT_EQ(e->sharers, 0b10u);
  expect_clean_scan();
}

TEST_F(FabricTest, ReadAfterRemoteStoreSeesLatestData) {
  const LineAddr l = line_in_bank(0, 7);
  store(0, l);   // M at core 0
  load(1, l);    // probe owner: writeback + downgrade
  EXPECT_EQ(fabric_.l1(0).find(l)->coh, Mesi::kShared);
  EXPECT_FALSE(fabric_.l1(0).find(l)->dirty);
  EXPECT_EQ(fabric_.l1(1).find(l)->coh, Mesi::kShared);
  EXPECT_GE(fabric_.stats().l1_wb_coh, 1u);
  // Checker validated that core 1 observed core 0's store version.
  EXPECT_GE(checker_.loads_checked(), 1u);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricTest, WriteAfterRemoteWriteTransfersOwnership) {
  const LineAddr l = line_in_bank(1, 8);
  store(0, l);
  store(2, l);
  EXPECT_EQ(fabric_.l1(0).find(l), nullptr);
  EXPECT_EQ(fabric_.l1(2).find(l)->coh, Mesi::kModified);
  const DirPayload* e = fabric_.dir(1).find(l);
  EXPECT_EQ(e->excl, 2u);
  load(3, l);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricTest, L1ConflictEvictionWritesBackDirty) {
  // Two lines in the same L1 set (8 sets) and same home bank, plus a third
  // to force eviction of a dirty line.
  const LineAddr a = line_in_bank(0, 0);       // set 0 of L1 (line 0)
  const LineAddr b = line_in_bank(0, 8 * 1);   // 32 -> set 0
  const LineAddr c = line_in_bank(0, 8 * 2);   // 64 -> set 0
  ASSERT_EQ(fabric_.l1(0).set_of(a), fabric_.l1(0).set_of(b));
  ASSERT_EQ(fabric_.l1(0).set_of(a), fabric_.l1(0).set_of(c));
  store(0, a);
  load(0, b);
  load(0, c);  // evicts one of a/b
  EXPECT_EQ(fabric_.stats().l1_evictions, 1u);
  // If the dirty line a was evicted, its data must be in the LLC now.
  if (fabric_.l1(0).find(a) == nullptr) {
    EXPECT_GE(fabric_.stats().l1_wb_coh, 1u);
    const auto* ll = fabric_.llc(0).find(a);
    ASSERT_NE(ll, nullptr);
    EXPECT_TRUE(ll->dirty);
  }
  // Reading a again from another core must see the stored version.
  load(1, a);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricTest, DirectoryEvictionRecallsSharersAndInvalidatesLlc) {
  // Fill one directory set (8 ways) of bank 0 with lines cached by core 0,
  // then touch a 9th conflicting line.
  std::vector<LineAddr> lines;
  for (std::uint64_t i = 0; i < 9; ++i) {
    // bank 0, same dir set: line = (i * 8 sets) stride in bank-local space
    lines.push_back(line_in_bank(0, i * 8));
  }
  for (std::uint64_t i = 0; i < 8; ++i) load(0, lines[i]);
  const auto before = fabric_.stats().dir_evictions;
  load(0, lines[8]);
  EXPECT_EQ(fabric_.stats().dir_evictions, before + 1);
  EXPECT_GE(fabric_.stats().llc_inval_by_dir, 1u);
  // Exactly one of the first 8 lines lost its directory entry and LLC line.
  unsigned missing = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (fabric_.dir(0).find(lines[i]) == nullptr) {
      ++missing;
      EXPECT_EQ(fabric_.llc(0).find(lines[i]), nullptr);
      EXPECT_EQ(fabric_.l1(0).find(lines[i]), nullptr) << "recall must purge L1";
    }
  }
  EXPECT_EQ(missing, 1u);
  expect_clean_scan();
}

TEST_F(FabricTest, DirectoryEvictionOfDirtyOwnerReachesMemory) {
  std::vector<LineAddr> lines;
  for (std::uint64_t i = 0; i < 9; ++i) lines.push_back(line_in_bank(0, i * 8));
  store(0, lines[0]);  // dirty owner
  for (std::uint64_t i = 1; i < 8; ++i) load(0, lines[i]);
  // Make the dirty line the PLRU victim by touching the others... order is
  // fill order; force eviction with the conflicting 9th line.
  load(0, lines[8]);
  // Whichever was evicted, reading everything back must observe the stored
  // version (writeback chain L1 -> LLC -> memory must not lose data).
  for (std::uint64_t i = 0; i < 9; ++i) load(1, lines[i]);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricTest, SilentCleanEvictionLeavesStaleSharerTolerated) {
  const LineAddr a = line_in_bank(0, 0);
  const LineAddr b = line_in_bank(0, 8);
  const LineAddr c = line_in_bank(0, 16);
  load(0, a);  // E at core 0
  load(0, b);
  load(0, c);  // a or b silently evicted (clean)
  // Directory still lists core 0; a store by core 1 sends a wasted inval.
  store(1, a);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricTest, LatencyOrdering) {
  const LineAddr l = line_in_bank(0, 40);
  const auto miss = load(0, l);
  const auto hit = load(0, l);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_GT(miss.latency, hit.latency);
  EXPECT_EQ(hit.latency, kL1HitCycles);
  // A miss served from memory pays at least the home-node lookup (directory
  // and LLC probed in parallel) plus the memory access.
  EXPECT_GE(miss.latency, kMemCycles + std::max(kLlcCycles, kDirCycles));
}

TEST_F(FabricTest, BankContentionSerializesConcurrentRequests) {
  // Two different cores hitting the same bank at the same instant: the
  // second waits for the first's busy window, so it pays strictly more than
  // the same request issued alone on a fresh fabric.
  const LineAddr a = line_in_bank(0, 21);
  const LineAddr b = line_in_bank(0, 22);
  (void)fabric_.access(0, a, false, false, 1000);
  const auto queued = fabric_.access(1, b, false, false, 1000);
  Fabric fresh(small_fabric_config(), nullptr);
  const auto alone = fresh.access(1, b, false, false, 1000);
  EXPECT_GT(queued.latency, alone.latency);
}

TEST_F(FabricTest, StatsAddCombines) {
  FabricStats a, b;
  a.l1_hits = 3;
  b.l1_hits = 4;
  a.e_dir_pj = 1.5;
  b.e_dir_pj = 2.5;
  a.add(b);
  EXPECT_EQ(a.l1_hits, 7u);
  EXPECT_DOUBLE_EQ(a.e_dir_pj, 4.0);
}

TEST(FabricScale, SixtyFourCoreMeshWorks) {
  // The sharer vector and mesh support up to 64 cores (8x8).
  FabricConfig cfg = small_fabric_config();
  cfg.cores = 64;
  cfg.topo.width = 8;
  cfg.topo.height = 8;
  CoherenceChecker checker(true);
  Fabric fabric(cfg, &checker);
  Cycle t = 0;
  const LineAddr l = 5;
  fabric.access(0, l, true, false, t++);  // M at core 0
  for (CoreId c = 1; c < 64; ++c) {
    fabric.access(c, l, false, false, t++);  // everyone reads
  }
  const DirPayload* e = fabric.dir(fabric.home_of(l)).find(l);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(popcount64(e->sharers), 64u);
  // One writer invalidates all 63 other sharers.
  fabric.access(3, l, true, false, t++);
  EXPECT_GE(fabric.stats().l1_invals_sharer, 63u);
  EXPECT_EQ(checker.violations(), 0u);
  for (const auto& v : CoherenceChecker::scan(fabric)) ADD_FAILURE() << v;
}

// Parameterized protocol sweep: a producer/consumer/eviction mix must keep
// all invariants under tree-PLRU replacement at several directory sizes.
class FabricSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FabricSweepTest, InvariantsHoldUnderChurn) {
  const std::uint32_t dir_entries = GetParam();
  FabricConfig cfg = small_fabric_config();
  cfg.dir.entries_per_bank = dir_entries;
  CoherenceChecker checker(true);
  Fabric fabric(cfg, &checker);
  Cycle t = 0;
  Rng rng(99);
  for (int op = 0; op < 20000; ++op) {
    const CoreId c = static_cast<CoreId>(rng.next_below(4));
    const LineAddr l = rng.next_below(512);
    const bool write = rng.next_bool(0.3);
    // Coherent-only churn: random NC interleaving on the same lines would be
    // a data race the programming model forbids (tested separately through
    // the machine-level property tests, which respect task semantics).
    fabric.access(c, l, write, false, t++);
    if (op % 1000 == 0) {
      for (const auto& v : CoherenceChecker::scan(fabric)) {
        FAIL() << dir_entries << ": " << v;
      }
    }
  }
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_GT(fabric.stats().dir_evictions, 0u);  // churn actually stressed it
}

std::string sweep_name(const ::testing::TestParamInfo<std::uint32_t>& info) {
  return "treeplru_d" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(ReplAndSize, FabricSweepTest, ::testing::Values(64u, 16u),
                         sweep_name);

}  // namespace
}  // namespace raccd
