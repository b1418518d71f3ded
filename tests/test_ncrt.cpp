// NCRT and raccd_register tests, including the paper's Fig. 5 translation
// example (byte-precise bounds, contiguous-frame collapsing) and overflow
// fallback.
#include <gtest/gtest.h>

#include "raccd/core/ncrt.hpp"
#include "raccd/core/raccd_engine.hpp"
#include "raccd/mem/page_table.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {
namespace {

TEST(Ncrt, InsertLookupClear) {
  Ncrt t(4);
  EXPECT_TRUE(t.insert(100, 200));
  EXPECT_TRUE(t.lookup(100));
  EXPECT_TRUE(t.lookup(199));
  EXPECT_FALSE(t.lookup(200));
  EXPECT_FALSE(t.lookup(99));
  EXPECT_EQ(t.stats().lookups, 4u);
  EXPECT_EQ(t.stats().hits, 2u);
  t.clear();
  EXPECT_FALSE(t.lookup(150));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().clears, 1u);
}

TEST(Ncrt, OverflowRejectsAndCounts) {
  Ncrt t(2);
  EXPECT_TRUE(t.insert(0, 10));
  EXPECT_TRUE(t.insert(20, 30));
  EXPECT_FALSE(t.insert(40, 50));
  EXPECT_EQ(t.stats().overflows, 1u);
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.lookup(45));  // rejected region stays coherent
}

class RegisterTest : public ::testing::Test {
 protected:
  RegisterTest() : engine_(1, RaccdEngineConfig{}), tlb_(64) {}
  RaccdEngine engine_;
  Tlb tlb_;
  PageTable pt_;
};

TEST_F(RegisterTest, PaperFig5Example) {
  // Paper Fig. 5: virtual range [0xaa044, 0xad088], pages 0xaa..0xad mapping
  // to frames 0xb2, 0xb3, 0xb7, 0xb8 -> two collapsed physical ranges:
  // [0xb2044, 0xb4000) and [0xb7000, 0xb8089).
  pt_.map(0xaa, 0xb2);
  pt_.map(0xab, 0xb3);
  pt_.map(0xac, 0xb7);
  pt_.map(0xad, 0xb8);
  const VAddr start = 0xaa044;
  const VAddr end_inclusive = 0xad088;
  const auto out =
      engine_.register_region(0, start, end_inclusive - start + 1, tlb_, pt_);
  EXPECT_EQ(out.pages_translated, 4u);
  EXPECT_EQ(out.ranges_inserted, 2u);
  EXPECT_FALSE(out.overflowed);
  const auto& entries = engine_.ncrt(0).entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].begin, 0xb2044u);
  EXPECT_EQ(entries[0].end, 0xb4000u);  // paper prints the last byte 0xb3fff
  EXPECT_EQ(entries[1].begin, 0xb7000u);
  EXPECT_EQ(entries[1].end, 0xb8089u);  // paper prints the last byte 0xb8088
  EXPECT_TRUE(engine_.is_noncoherent(0, 0xb3fff));
  EXPECT_FALSE(engine_.is_noncoherent(0, 0xb4000));
  EXPECT_TRUE(engine_.is_noncoherent(0, 0xb8088));
  EXPECT_FALSE(engine_.is_noncoherent(0, 0xb8089));
}

TEST_F(RegisterTest, ContiguousFramesCollapseToOneEntry) {
  for (PageNum v = 0; v < 32; ++v) pt_.map(v, v + 10);
  const auto out = engine_.register_region(0, 0, 32 * kPageBytes, tlb_, pt_);
  EXPECT_EQ(out.ranges_inserted, 1u);
  EXPECT_EQ(out.pages_translated, 32u);
  const auto& entries = engine_.ncrt(0).entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].begin, 10u * kPageBytes);
  EXPECT_EQ(entries[0].end, 42u * kPageBytes);
}

TEST_F(RegisterTest, LatencyGrowsWithPagesAndWalks) {
  for (PageNum v = 0; v < 64; ++v) pt_.map(v, v);
  const auto cold = engine_.register_region(0, 0, 16 * kPageBytes, tlb_, pt_);
  EXPECT_EQ(cold.tlb_misses, 16u);
  // Same region again: TLB now warm, so much cheaper.
  const auto warm = engine_.register_region(0, 0, 16 * kPageBytes, tlb_, pt_);
  EXPECT_EQ(warm.tlb_misses, 0u);
  EXPECT_GT(cold.cycles, warm.cycles);
  EXPECT_EQ(cold.cycles, kRaccdInstrOverheadCycles + 16 * kRaccdPerPageLookupCycles +
                             16 * kTlbWalkCycles + kRaccdPerInsertCycles);
}

TEST_F(RegisterTest, FragmentedMappingNeedsManyEntriesAndOverflows) {
  // Alternating frames (v -> 2v) are never contiguous: one entry per page.
  for (PageNum v = 0; v < 64; ++v) pt_.map(v, v * 2);
  RaccdEngineConfig cfg;
  cfg.ncrt_entries = 8;
  RaccdEngine small(1, cfg);
  const auto out = small.register_region(0, 0, 16 * kPageBytes, tlb_, pt_);
  EXPECT_TRUE(out.overflowed);
  EXPECT_EQ(out.ranges_inserted, 8u);
  EXPECT_EQ(small.ncrt(0).stats().overflows, 8u);
}

TEST_F(RegisterTest, InvalidateClearsNcrt) {
  pt_.map(0, 0);
  engine_.register_region(0, 0, 100, tlb_, pt_);
  EXPECT_EQ(engine_.ncrt(0).size(), 1u);
  const Cycle c = engine_.invalidate(0);
  EXPECT_EQ(c, kRaccdInstrOverheadCycles);
  EXPECT_EQ(engine_.ncrt(0).size(), 0u);
}

TEST_F(RegisterTest, ZeroSizeRegionIsNoop) {
  const auto out = engine_.register_region(0, 0x1000, 0, tlb_, pt_);
  EXPECT_EQ(out.pages_translated, 0u);
  EXPECT_EQ(engine_.ncrt(0).size(), 0u);
}

TEST_F(RegisterTest, PerCoreTablesAreIndependent) {
  RaccdEngine multi(4, RaccdEngineConfig{});
  pt_.map(0, 5);
  multi.register_region(2, 0, 64, tlb_, pt_);
  EXPECT_TRUE(multi.is_noncoherent(2, 5 * kPageBytes));
  EXPECT_FALSE(multi.is_noncoherent(0, 5 * kPageBytes));
  EXPECT_FALSE(multi.is_noncoherent(3, 5 * kPageBytes));
  const auto total = multi.total_stats();
  EXPECT_EQ(total.inserts, 1u);
}

}  // namespace
}  // namespace raccd
