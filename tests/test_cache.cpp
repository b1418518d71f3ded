#include <gtest/gtest.h>

#include "raccd/cache/l1_cache.hpp"
#include "raccd/cache/llc_bank.hpp"
#include "raccd/cache/replacement.hpp"

namespace raccd {
namespace {

TEST(Replacement, TreePlruTwoWay) {
  ReplacementState r(4, 2);
  r.touch(0, 0);
  EXPECT_EQ(r.victim(0), 1u);
  r.touch(0, 1);
  EXPECT_EQ(r.victim(0), 0u);
}

TEST(Replacement, TreePlruEightWayPointsAwayFromRecent) {
  ReplacementState r(1, 8);
  for (std::uint32_t w = 0; w < 8; ++w) r.touch(0, w);
  // After touching 0..7 in order, the victim must not be the most recent.
  EXPECT_NE(r.victim(0), 7u);
}

TEST(Replacement, TreePlruCoversAllWaysUnderRoundRobinTouches) {
  ReplacementState r(1, 4);
  // Repeatedly touch the current victim: every way must eventually be chosen.
  bool seen[4] = {};
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = r.victim(0);
    seen[v] = true;
    r.touch(0, v);
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(L1Cache, GeometryAndBasicFill) {
  L1Cache l1(L1Geometry{});  // 32 KB, 2-way -> 256 sets
  EXPECT_EQ(l1.sets(), 256u);
  EXPECT_EQ(l1.line_capacity(), 512u);
  EXPECT_EQ(l1.find(42), nullptr);
  const L1Line evicted = l1.fill(42, false, Mesi::kExclusive, false, 7);
  EXPECT_FALSE(evicted.valid);
  L1Payload* hit = l1.find(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->coh, Mesi::kExclusive);
  EXPECT_EQ(hit->version, 7u);
  EXPECT_EQ(l1.valid_lines(), 1u);
}

TEST(L1Cache, ConflictEviction) {
  L1Cache l1(L1Geometry{});
  // Three lines mapping to set 0 in a 2-way cache: the first fill's victim
  // is returned on the third.
  const LineAddr a = 0, b = 256, c = 512;
  l1.fill(a, false, Mesi::kShared, false, 0);
  l1.fill(b, false, Mesi::kModified, true, 3);
  l1.touch(l1.slot_of(b));  // make a the PLRU victim
  const L1Line victim = l1.fill(c, false, Mesi::kShared, false, 0);
  EXPECT_TRUE(victim.valid);
  EXPECT_EQ(victim.line, a);
  EXPECT_EQ(l1.valid_lines(), 2u);
}

TEST(L1Cache, InvalidateReturnsOldContents) {
  L1Cache l1(L1Geometry{});
  l1.fill(9, true, Mesi::kInvalid, true, 5);
  const L1Line old = l1.invalidate(9);
  EXPECT_TRUE(old.valid);
  EXPECT_TRUE(old.nc);
  EXPECT_TRUE(old.dirty);
  EXPECT_EQ(old.version, 5u);
  EXPECT_EQ(l1.find(9), nullptr);
  EXPECT_FALSE(l1.invalidate(9).valid);
}

TEST(L1Cache, WalkVisitsAllValid) {
  L1Cache l1(L1Geometry{});
  for (LineAddr l = 0; l < 100; ++l) l1.fill(l, l % 2 == 0, Mesi::kShared, false, 0);
  unsigned total = 0, nc = 0;
  l1.for_each_valid([&](LineAddr, const L1Payload& p) {
    ++total;
    nc += p.nc ? 1 : 0;
  });
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(nc, 50u);
}

TEST(LlcBank, SetIndexSkipsBankBits) {
  LlcGeometry geo;
  geo.lines_per_bank = 2048;
  geo.ways = 8;
  geo.bank_bits = 4;
  LlcBank bank(geo);
  EXPECT_EQ(bank.sets(), 256u);
  // Lines 16 apart (same bank for 16 banks) land in consecutive sets.
  EXPECT_EQ(bank.set_of(0), 0u);
  EXPECT_EQ(bank.set_of(16), 1u);
  EXPECT_EQ(bank.set_of(16 * 256), 0u);  // wraps after 256 sets
}

TEST(LlcBank, FillEvictProtocol) {
  LlcGeometry geo;
  geo.lines_per_bank = 64;  // 8 sets x 8 ways
  geo.ways = 8;
  geo.bank_bits = 0;
  LlcBank bank(geo);
  // Fill one full set (lines congruent mod 8).
  for (int w = 0; w < 8; ++w) {
    EXPECT_FALSE(bank.peek_victim(w * 8).valid);
    bank.fill(w * 8, false, false, 0);
  }
  const LlcLine victim = bank.peek_victim(64);
  EXPECT_TRUE(victim.valid);
  // Caller must evict the victim before filling.
  bank.invalidate(victim.line);
  bank.fill(64, true, true, 11);
  LlcPayload* found = bank.find(64);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->nc);
  EXPECT_TRUE(found->dirty);
  EXPECT_EQ(bank.valid_lines(), 8u);
}

TEST(WayArray, FreshArrayIsEmptyAndPayloadsPoisonedInDebug) {
  WayArray<LlcPayload> ways(4, 8);
  EXPECT_EQ(ways.valid_count(), 0u);
  for (std::uint32_t set = 0; set < 4; ++set) {
    EXPECT_EQ(ways.free_slot(set), set * 8);
    EXPECT_EQ(ways.find(set, 0), (WayArray<LlcPayload>::kNoSlot));
  }
#ifndef NDEBUG
  // Nothing writes a payload before its fill; debug builds fill them with a
  // pattern so that a read before fill cannot pass on zeroed memory.
  const auto* bytes = reinterpret_cast<const unsigned char*>(&ways.at(0));
  for (std::size_t i = 0; i < 32 * sizeof(LlcPayload); ++i) EXPECT_EQ(bytes[i], kPayloadPoison);
#endif
  ways.install(ways.free_slot(2), 42) = LlcPayload{7, true, false};
  EXPECT_EQ(ways.find(2, 42), 16u);
  EXPECT_EQ(ways.line(16), 42u);
  EXPECT_TRUE(ways.at(16).dirty);
  const LlcLine old = ways.take(16);
  EXPECT_TRUE(old.valid);
  EXPECT_EQ(old.line, 42u);
  EXPECT_EQ(old.version, 7u);
  EXPECT_EQ(ways.valid_count(), 0u);
}

}  // namespace
}  // namespace raccd
