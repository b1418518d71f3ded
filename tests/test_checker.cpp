// Checker-focused tests: the value-version tracker and structural scan must
// actually *catch* corruption, not just stay silent on correct runs.
#include <gtest/gtest.h>

#include "fabric_test_util.hpp"

namespace raccd {
namespace {

using testutil::line_in_bank;
using testutil::small_fabric_config;

TEST(Checker, NonStrictCountsStaleLoads) {
  CoherenceChecker checker(/*strict=*/false);
  checker.on_store(5, 100);
  checker.on_load(5, 100);
  EXPECT_EQ(checker.violations(), 0u);
  checker.on_load(5, 99);  // stale
  EXPECT_EQ(checker.violations(), 1u);
  checker.on_load(7, 0);  // never-written line observed at version 0: fine
  EXPECT_EQ(checker.violations(), 1u);
  checker.on_load(7, 3);  // phantom write
  EXPECT_EQ(checker.violations(), 2u);
  EXPECT_EQ(checker.loads_checked(), 4u);
  EXPECT_EQ(checker.stores_seen(), 1u);
}

TEST(Checker, StrictDiesOnStaleLoad) {
  CoherenceChecker checker(/*strict=*/true);
  checker.on_store(5, 100);
  EXPECT_DEATH(checker.on_load(5, 99), "stale data");
}

TEST(Checker, ScanCleanOnFreshAndActiveFabric) {
  Fabric fabric(small_fabric_config(), nullptr);
  EXPECT_TRUE(CoherenceChecker::scan(fabric).empty());
  Cycle t = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    fabric.access(static_cast<CoreId>(i % 4), line_in_bank(i % 4, i), i % 3 == 0,
                  i % 5 == 0, t++);
  }
  EXPECT_TRUE(CoherenceChecker::scan(fabric).empty());
}

TEST(Checker, ScanDetectsUntrackedCoherentL1Copy) {
  Fabric fabric(small_fabric_config(), nullptr);
  const LineAddr l = line_in_bank(0, 3);
  fabric.access(0, l, false, false, 0);
  // Corrupt: drop the directory entry behind the fabric's back.
  fabric.dir(0).remove(l);
  const auto violations = CoherenceChecker::scan(fabric);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const auto& v : violations) {
    found |= v.find("without directory entry") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Checker, ScanDetectsNcLineWithDirectoryEntry) {
  Fabric fabric(small_fabric_config(), nullptr);
  const LineAddr l = line_in_bank(1, 4);
  fabric.access(0, l, false, true, 0);  // NC fill (no dir entry)
  fabric.dir(1).alloc(l);               // corrupt: track the NC line
  const auto violations = CoherenceChecker::scan(fabric);
  bool found = false;
  for (const auto& v : violations) {
    found |= v.find("NC") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Checker, ScanDetectsDoubleExclusive) {
  Fabric fabric(small_fabric_config(), nullptr);
  const LineAddr l = line_in_bank(2, 6);
  fabric.access(0, l, true, false, 0);  // M at core 0
  // Corrupt: force a second coherent copy in E state into core 1's L1.
  fabric.l1(1).fill(l, false, Mesi::kExclusive, false, 0);
  const auto violations = CoherenceChecker::scan(fabric);
  bool found = false;
  for (const auto& v : violations) {
    found |= v.find("exclusive") != std::string::npos ||
             v.find("E/M copy coexists") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Checker, ScanDetectsDirtySharedCopy) {
  Fabric fabric(small_fabric_config(), nullptr);
  const LineAddr l = line_in_bank(3, 2);
  fabric.access(0, l, false, false, 0);
  L1Payload* line = fabric.l1(0).find(l);
  ASSERT_NE(line, nullptr);
  line->coh = Mesi::kShared;
  line->dirty = true;  // corrupt: dirty outside M
  const auto violations = CoherenceChecker::scan(fabric);
  bool found = false;
  for (const auto& v : violations) {
    found |= v.find("dirty coherent copy") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace raccd
