#include <gtest/gtest.h>

#include "raccd/coherence/directory.hpp"

namespace raccd {
namespace {

DirGeometry small_geo() {
  DirGeometry g;
  g.entries_per_bank = 64;  // 8 sets x 8 ways
  g.ways = 8;
  g.bank_bits = 0;
  return g;
}

TEST(Directory, AllocFindRemove) {
  DirectoryBank d(small_geo());
  EXPECT_EQ(d.find(5), nullptr);
  DirPayload& e = d.alloc(5);
  e.sharers = 0b11;
  e.excl = kNoCore;
  ASSERT_NE(d.find(5), nullptr);
  EXPECT_EQ(d.find(5)->sharers, 0b11u);
  EXPECT_EQ(d.valid_entries(), 1u);
  EXPECT_TRUE(d.remove(5));
  EXPECT_EQ(d.find(5), nullptr);
  EXPECT_FALSE(d.remove(5));
  EXPECT_EQ(d.valid_entries(), 0u);
}

TEST(Directory, SetConflictVictim) {
  DirectoryBank d(small_geo());
  // 8 sets: lines congruent mod 8 collide. Fill a set.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(d.has_free_way(i * 8));
    d.alloc(i * 8);
  }
  EXPECT_FALSE(d.has_free_way(64));
  const DirEntry victim = d.peek_victim(64);
  EXPECT_TRUE(victim.valid);
  d.remove(victim.line);
  d.alloc(64);
  EXPECT_EQ(d.valid_entries(), 8u);
}

TEST(Directory, ResizeShrinkKeepsEntriesOrDisplaces) {
  DirectoryBank d(small_geo());
  for (std::uint64_t i = 0; i < 32; ++i) d.alloc(i);  // 4 per set
  std::vector<DirEntry> displaced;
  const std::uint32_t moved = d.resize(4, displaced);  // 8 -> 4 sets
  // 32 entries over 4 sets x 8 ways = full; all fit exactly.
  EXPECT_EQ(moved, 32u);
  EXPECT_TRUE(displaced.empty());
  EXPECT_EQ(d.active_sets(), 4u);
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_NE(d.find(i), nullptr) << i;
  }
}

TEST(Directory, ResizeShrinkDisplacesOverflow) {
  DirectoryBank d(small_geo());
  for (std::uint64_t i = 0; i < 40; ++i) d.alloc(i);  // 5 per set
  std::vector<DirEntry> displaced;
  d.resize(4, displaced);  // capacity 32 < 40
  EXPECT_EQ(displaced.size(), 8u);
  EXPECT_EQ(d.valid_entries(), 32u);
}

TEST(Directory, ResizeGrowRedistributes) {
  DirectoryBank d(small_geo());
  std::vector<DirEntry> displaced;
  d.resize(2, displaced);
  displaced.clear();
  for (std::uint64_t i = 0; i < 16; ++i) d.alloc(i);
  EXPECT_EQ(d.active_sets(), 2u);
  d.resize(8, displaced);
  EXPECT_TRUE(displaced.empty());
  EXPECT_EQ(d.active_sets(), 8u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_NE(d.find(i), nullptr);
    // Entries now spread over 8 sets again.
    EXPECT_EQ(d.set_of(i), i % 8);
  }
}

TEST(Directory, OccupancyIntegral) {
  DirectoryBank d(small_geo());
  d.occupancy_tick(0);
  d.alloc(1);
  d.occupancy_tick(100);  // 1 entry for 100 cycles
  d.alloc(2);
  d.occupancy_tick(200);  // 2 entries for 100 cycles
  EXPECT_DOUBLE_EQ(d.occupancy_integral(), 100.0 + 200.0);
  // Ticks never go backwards.
  d.occupancy_tick(150);
  EXPECT_DOUBLE_EQ(d.occupancy_integral(), 300.0);
}

TEST(Directory, ActiveIntegralTracksPoweredSize) {
  DirectoryBank d(small_geo());
  d.occupancy_tick(0);
  d.occupancy_tick(10);
  EXPECT_DOUBLE_EQ(d.active_integral(), 10.0 * 64);
  std::vector<DirEntry> displaced;
  d.resize(4, displaced);
  d.occupancy_tick(20);
  EXPECT_DOUBLE_EQ(d.active_integral(), 10.0 * 64 + 10.0 * 32);
}

}  // namespace
}  // namespace raccd
