#include <gtest/gtest.h>

#include "raccd/mem/page_table.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {
namespace {

class TlbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (PageNum v = 0; v < 1024; ++v) pt_.map(v, v + 100);
  }
  PageTable pt_;
};

TEST_F(TlbTest, MissThenHit) {
  Tlb tlb(4);
  auto r = tlb.access(5, pt_);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.pframe, 105u);
  r = tlb.access(5, pt_);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.pframe, 105u);
  EXPECT_EQ(tlb.stats().misses, 1u);
  EXPECT_EQ(tlb.stats().hits, 1u);
}

// Lookahead translates pure hits with peek() + hit(): peek must change
// nothing, and peek + hit must leave exactly the state a hitting access()
// leaves (stats, LRU order, the same-page filter).
TEST_F(TlbTest, PeekIsPureAndPeekPlusHitMatchesAccess) {
  Tlb a(3), b(3);
  for (PageNum v : {1, 2, 3}) {
    (void)a.access(v, pt_);
    (void)b.access(v, pt_);
  }
  EXPECT_EQ(b.peek(9), Tlb::kNoSlot);
  for (PageNum v : {1, 1, 2, 3, 1}) {
    const std::uint32_t slot = b.peek(v);
    ASSERT_NE(slot, Tlb::kNoSlot);
    EXPECT_EQ(b.peek(v), slot);
    EXPECT_EQ(b.frame(slot), v + 100);
    b.hit(slot);
    EXPECT_EQ(a.access(v, pt_).pframe, b.frame(slot));
  }
  EXPECT_EQ(a.stats().lookups, b.stats().lookups);
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
  // Same LRU order: the next miss evicts the same page (2) in both.
  (void)a.access(4, pt_);
  (void)b.access(4, pt_);
  for (PageNum v : {1, 2, 3, 4}) EXPECT_EQ(a.contains(v), b.contains(v)) << v;
  EXPECT_FALSE(b.contains(2));
}

TEST_F(TlbTest, LruEviction) {
  Tlb tlb(2);
  tlb.access(1, pt_);
  tlb.access(2, pt_);
  tlb.access(1, pt_);  // 1 is now MRU; victim is 2
  tlb.access(3, pt_);  // evicts 2
  EXPECT_TRUE(tlb.contains(1));
  EXPECT_FALSE(tlb.contains(2));
  EXPECT_TRUE(tlb.contains(3));
  EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST_F(TlbTest, FastPathDoesNotBreakLru) {
  Tlb tlb(2);
  tlb.access(1, pt_);
  tlb.access(1, pt_);  // same-page fast path
  tlb.access(1, pt_);
  tlb.access(2, pt_);
  tlb.access(3, pt_);  // evicts 1 (LRU among {1,2})
  EXPECT_FALSE(tlb.contains(1));
  EXPECT_TRUE(tlb.contains(2));
  EXPECT_TRUE(tlb.contains(3));
}

TEST_F(TlbTest, InvalidateShootdown) {
  Tlb tlb(4);
  tlb.access(7, pt_);
  EXPECT_TRUE(tlb.contains(7));
  EXPECT_TRUE(tlb.invalidate(7));
  EXPECT_FALSE(tlb.contains(7));
  EXPECT_FALSE(tlb.invalidate(7));  // second shootdown misses
  EXPECT_EQ(tlb.stats().shootdowns, 1u);
  // Invalidated entry must re-walk, and the slot must be reusable.
  auto r = tlb.access(7, pt_);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(tlb.size(), 1u);
}

TEST_F(TlbTest, InvalidateClearsFastPath) {
  Tlb tlb(4);
  tlb.access(9, pt_);
  tlb.invalidate(9);
  const auto r = tlb.access(9, pt_);  // must not be served by the stale filter
  EXPECT_FALSE(r.hit);
}

TEST_F(TlbTest, FlushEmptiesEverything) {
  Tlb tlb(8);
  for (PageNum v = 0; v < 8; ++v) tlb.access(v, pt_);
  EXPECT_EQ(tlb.size(), 8u);
  tlb.flush();
  EXPECT_EQ(tlb.size(), 0u);
  for (PageNum v = 0; v < 8; ++v) EXPECT_FALSE(tlb.contains(v));
  const auto r = tlb.access(0, pt_);
  EXPECT_FALSE(r.hit);
}

TEST_F(TlbTest, CapacityStress) {
  Tlb tlb(256);
  for (PageNum v = 0; v < 1024; ++v) tlb.access(v, pt_);
  EXPECT_EQ(tlb.size(), 256u);
  // The most recent 256 pages are resident.
  for (PageNum v = 1024 - 256; v < 1024; ++v) EXPECT_TRUE(tlb.contains(v));
  EXPECT_FALSE(tlb.contains(0));
}

}  // namespace
}  // namespace raccd
