// Non-coherent transaction tests: directory bypass, NC bit propagation,
// coherent<->NC transitions (paper §III-E), raccd_invalidate flushes and the
// PT page flush.
#include <gtest/gtest.h>

#include <vector>

#include "fabric_test_util.hpp"
#include "raccd/common/rng.hpp"

namespace raccd {
namespace {

using testutil::line_in_bank;
using testutil::small_fabric_config;

class FabricNcTest : public ::testing::Test {
 protected:
  FabricNcTest() : checker_(true), fabric_(small_fabric_config(), &checker_) {}

  AccessOutcome access(CoreId c, LineAddr l, bool w, bool nc) {
    return fabric_.access(c, l, w, nc, t_++);
  }

  void expect_clean_scan() {
    for (const auto& v : CoherenceChecker::scan(fabric_)) ADD_FAILURE() << v;
  }

  CoherenceChecker checker_;
  Fabric fabric_;
  Cycle t_ = 0;
};

TEST_F(FabricNcTest, NcMissBypassesDirectory) {
  const LineAddr l = line_in_bank(1, 2);
  const auto before = fabric_.stats().dir_accesses;
  access(0, l, false, true);
  EXPECT_EQ(fabric_.stats().dir_accesses, before);  // never touched
  EXPECT_EQ(fabric_.dir(1).find(l), nullptr);
  const L1Line* line = fabric_.l1(0).find(l);
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(line->nc);
  const LlcLine* ll = fabric_.llc(1).find(l);
  ASSERT_NE(ll, nullptr);
  EXPECT_TRUE(ll->nc);
  expect_clean_scan();
}

TEST_F(FabricNcTest, NcLatencySkipsDirectoryCycles) {
  // NC request: request + LLC + memory; coherent adds the directory access.
  const auto nc = access(0, line_in_bank(1, 2), false, true);
  const auto coh = access(0, line_in_bank(1, 34), false, false);
  EXPECT_LT(nc.latency, coh.latency);
}

TEST_F(FabricNcTest, NcStoreWritebackReachesLlc) {
  const LineAddr l = line_in_bank(0, 3);
  access(0, l, true, true);  // NC write-allocate
  EXPECT_TRUE(fabric_.l1(0).find(l)->dirty);
  const auto out = fabric_.flush_nc_lines(0, t_++);
  EXPECT_EQ(out.lines, 1u);
  EXPECT_EQ(out.writebacks, 1u);
  EXPECT_EQ(fabric_.l1(0).find(l), nullptr);
  const LlcLine* ll = fabric_.llc(0).find(l);
  ASSERT_NE(ll, nullptr);
  EXPECT_TRUE(ll->dirty);
  // Another core reading coherently must see the NC-written version
  // (NC -> coherent transition allocates a directory entry).
  access(1, l, false, false);
  EXPECT_EQ(checker_.violations(), 0u);
  EXPECT_EQ(fabric_.stats().dir_nc_to_coh, 1u);
  EXPECT_FALSE(fabric_.llc(0).find(l)->nc);
  ASSERT_NE(fabric_.dir(0).find(l), nullptr);
  expect_clean_scan();
}

TEST_F(FabricNcTest, CoherentToNcTransitionDropsDirEntry) {
  const LineAddr l = line_in_bank(2, 4);
  access(0, l, true, false);  // coherent M at core 0
  const auto flush = fabric_.flush_nc_lines(0, t_++);  // no NC lines yet
  EXPECT_EQ(flush.lines, 0u);
  // A later task accesses the same data as a declared dependence: NC request.
  // The dirty owner copy must be pulled back and the dir entry dropped.
  access(1, l, false, true);
  EXPECT_EQ(fabric_.stats().dir_coh_to_nc, 1u);
  EXPECT_EQ(fabric_.dir(2).find(l), nullptr);
  EXPECT_TRUE(fabric_.llc(2).find(l)->nc);
  EXPECT_EQ(fabric_.l1(0).find(l), nullptr) << "stale owner copy must be recalled";
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricNcTest, FlushWalkCostCoversWholeL1) {
  const auto out = fabric_.flush_nc_lines(0, 0);
  // 1 KB L1 = 16 lines; walk cost = capacity * per-line cycles.
  EXPECT_EQ(out.cycles, 16u * small_fabric_config().invalidate_walk_cycles_per_line);
}

TEST_F(FabricNcTest, FlushLeavesCoherentLinesAlone) {
  const LineAddr coh = line_in_bank(0, 1);
  const LineAddr nc = line_in_bank(0, 2);
  access(0, coh, false, false);
  access(0, nc, false, true);
  const auto out = fabric_.flush_nc_lines(0, t_++);
  EXPECT_EQ(out.lines, 1u);
  EXPECT_EQ(out.writebacks, 0u);  // clean NC line drops silently
  EXPECT_NE(fabric_.l1(0).find(coh), nullptr);
  EXPECT_EQ(fabric_.l1(0).find(nc), nullptr);
  expect_clean_scan();
}

TEST_F(FabricNcTest, NcWritebackAfterLlcEvictionGoesToMemory) {
  // Dirty NC line in L1; evict the LLC copy via conflicting NC fills, then
  // flush: the writeback must fall through to memory without reallocation.
  const LineAddr victim = line_in_bank(0, 0);
  access(0, victim, true, true);
  // LLC bank 0 set of `victim` holds 8 ways; fill 8 conflicting lines
  // (same LLC set: bank-local stride 8) from another core.
  for (std::uint64_t i = 1; i <= 8; ++i) {
    access(1, line_in_bank(0, i * 8), false, true);
  }
  EXPECT_EQ(fabric_.llc(0).find(victim), nullptr) << "LLC copy should be evicted";
  const auto mem_writes_before = fabric_.stats().mem_writes;
  const auto out = fabric_.flush_nc_lines(0, t_++);
  EXPECT_EQ(out.writebacks, 1u);
  EXPECT_GT(fabric_.stats().mem_writes, mem_writes_before);
  // Coherent read must still see the written version (now from memory).
  access(2, victim, false, false);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricNcTest, PageFlushPurgesOnlyThatFrame) {
  // Lines of frame 0 are lines 0..63; frame 1 is 64..127.
  access(0, 0, true, true);
  access(0, 1, false, true);
  access(0, 64, false, true);
  const auto out = fabric_.flush_page_lines(0, 0, t_++);
  EXPECT_EQ(out.lines, 2u);
  EXPECT_EQ(out.writebacks, 1u);
  EXPECT_EQ(out.cycles, kLinesPerPage);
  EXPECT_EQ(fabric_.l1(0).find(0), nullptr);
  EXPECT_EQ(fabric_.l1(0).find(1), nullptr);
  EXPECT_NE(fabric_.l1(0).find(64), nullptr);
  expect_clean_scan();
}

TEST_F(FabricNcTest, ClassifierTracksEverCoherent) {
  const LineAddr a = line_in_bank(0, 1);  // only NC
  const LineAddr b = line_in_bank(0, 2);  // NC then coherent
  const LineAddr c = line_in_bank(0, 3);  // only coherent
  access(0, a, false, true);
  access(0, b, false, true);
  fabric_.flush_nc_lines(0, t_++);
  access(1, b, false, false);
  access(1, c, false, false);
  const BlockClassifier& cls = fabric_.classifier();
  EXPECT_EQ(cls.touched_blocks(), 3u);
  EXPECT_EQ(cls.noncoherent_blocks(), 1u);  // only `a` was never coherent
  EXPECT_EQ(cls.coherent_blocks(), 2u);
  EXPECT_NEAR(cls.noncoherent_fraction(), 1.0 / 3.0, 1e-12);
}

TEST_F(FabricNcTest, ResizeDirBankDisplacesAndBlocks) {
  // Track 16 coherent lines in bank 0, then shrink the bank hard.
  for (std::uint64_t i = 0; i < 16; ++i) access(0, line_in_bank(0, i), false, false);
  EXPECT_EQ(fabric_.dir(0).valid_entries(), 16u);
  const auto out = fabric_.resize_dir_bank(0, 1, t_++);  // 8 entries total
  EXPECT_EQ(fabric_.dir(0).active_sets(), 1u);
  EXPECT_EQ(out.displaced, 8u);
  EXPECT_EQ(fabric_.dir(0).valid_entries(), 8u);
  EXPECT_GT(out.blocked_cycles, 0u);
  // Displaced lines lost their LLC copies; reading them again must re-fetch
  // and still see correct data.
  for (std::uint64_t i = 0; i < 16; ++i) access(1, line_in_bank(0, i), false, false);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricNcTest, RepeatHitAccounting) {
  const auto before = fabric_.stats().l1_accesses;
  fabric_.count_l1_repeat_hits(15);
  EXPECT_EQ(fabric_.stats().l1_accesses, before + 15);
  EXPECT_EQ(fabric_.stats().l1_hits, 15u);
}

// The flush visits only the slots that took NC fills since the last flush.
// Whatever happened to those slots since — NC evictions, page-flush
// invalidations, coherent or NC refills — it must drop exactly the valid NC
// lines a full scan of the L1 finds, and write back the dirty ones.
TEST_F(FabricNcTest, NcFlushMatchesFullScanAfterMixedTraffic) {
  // 4 pages of lines over a 16-line L1: constant evictions. A line is NC or
  // coherent for the whole run; NC lines stay private to core 0.
  const auto is_nc = [](LineAddr l) { return (l >> 2) % 3 == 0; };
  Rng rng(11);
  std::uint64_t flushed = 0;
  for (int round = 0; round < 300; ++round) {
    const std::uint64_t ops = 1 + rng.next_below(24);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const LineAddr l = rng.next_below(256);
      const std::uint64_t pick = rng.next_below(16);
      if (pick == 0) {
        (void)fabric_.flush_page_lines(0, l >> (kPageShift - kLineShift), t_++);
      } else if (pick == 1 && !is_nc(l)) {
        access(1, l, rng.next_below(2) == 0, false);  // may invalidate core 0's copy
      } else {
        access(0, l, rng.next_below(2) == 0, is_nc(l));
      }
    }
    struct Dropped {
      LineAddr line;
      bool dirty;
      std::uint64_t version;
    };
    std::vector<Dropped> want;
    std::vector<LineAddr> kept;
    fabric_.l1(0).for_each_valid([&](const L1Line& l) {
      if (l.nc) {
        want.push_back({l.line, l.dirty, l.version});
      } else {
        kept.push_back(l.line);
      }
    });
    std::uint64_t dirty = 0;
    for (const Dropped& d : want) dirty += d.dirty ? 1 : 0;
    const FabricStats before = fabric_.stats();
    const auto out = fabric_.flush_nc_lines(0, t_++);
    ASSERT_EQ(out.lines, want.size()) << "round " << round;
    EXPECT_EQ(out.writebacks, dirty);
    EXPECT_EQ(out.cycles, fabric_.l1(0).line_capacity() *
                              small_fabric_config().invalidate_walk_cycles_per_line);
    EXPECT_EQ(fabric_.stats().l1_flush_nc_lines - before.l1_flush_nc_lines, want.size());
    EXPECT_EQ(fabric_.stats().l1_flush_nc_wbs - before.l1_flush_nc_wbs, dirty);
    EXPECT_EQ(fabric_.l1(0).nc_slot_count(), 0u);
    for (const Dropped& d : want) {
      EXPECT_EQ(fabric_.l1(0).find(d.line), nullptr);
      if (!d.dirty) continue;
      // The written-back version landed in the LLC, or in memory if the
      // LLC no longer holds the line.
      const LlcLine* ll = fabric_.llc(fabric_.topology().home_bank(d.line)).find(d.line);
      if (ll != nullptr) {
        EXPECT_TRUE(ll->dirty);
        EXPECT_EQ(ll->version, d.version);
      } else {
        EXPECT_EQ(fabric_.mem_version(d.line), d.version);
      }
    }
    for (const LineAddr l : kept) EXPECT_NE(fabric_.l1(0).find(l), nullptr);
    flushed += want.size();
  }
  EXPECT_GT(flushed, 300u);
  EXPECT_EQ(checker_.violations(), 0u);
  expect_clean_scan();
}

TEST_F(FabricNcTest, NcSlotListStaysWithinCapacityWithoutFlushes) {
  // PT classifies private pages NC and never runs the raccd_invalidate
  // walk: the per-slot dedup bit keeps the list bounded by the L1 size.
  const std::uint32_t capacity = fabric_.l1(0).line_capacity();
  Rng rng(12);
  for (int i = 0; i < 20000; ++i) {
    const LineAddr l = rng.next_below(4096);
    if (rng.next_below(64) == 0) {
      (void)fabric_.flush_page_lines(0, l >> (kPageShift - kLineShift), t_++);
    } else {
      access(0, l, rng.next_below(2) == 0, true);
    }
    ASSERT_LE(fabric_.l1(0).nc_slot_count(), capacity);
  }
  EXPECT_EQ(fabric_.l1(0).nc_slot_count(), capacity);
  EXPECT_EQ(checker_.violations(), 0u);
}

TEST(L1NcDrop, VisitsNcLinesInSetMajorOrder) {
  // drop_nc_lines against a full scan of the array, under random NC and
  // coherent fills, evictions, invalidations and refills of the same slots.
  L1Cache l1{L1Geometry{}};
  Rng rng(13);
  std::uint64_t version = 0;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t ops = rng.next_below(400);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const LineAddr l = rng.next_below(2048);
      if (rng.next_below(8) == 0) {
        (void)l1.invalidate(l);
      } else if (l1.find(l) == nullptr) {
        const bool nc = rng.next_below(2) == 0;
        (void)l1.fill(l, nc, Mesi::kShared, nc && rng.next_below(2) == 0, ++version);
      }
    }
    std::vector<L1Line> want;
    std::uint32_t coherent = 0;
    l1.for_each_valid([&](const L1Line& l) {
      if (l.nc) {
        want.push_back(l);
      } else {
        ++coherent;
      }
    });
    std::vector<L1Line> got;
    l1.drop_nc_lines([&](const L1Line& old) { got.push_back(old); });
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].line, want[i].line) << "round " << round << " position " << i;
      EXPECT_EQ(got[i].dirty, want[i].dirty);
      EXPECT_EQ(got[i].version, want[i].version);
      EXPECT_EQ(l1.find(want[i].line), nullptr);
    }
    EXPECT_EQ(l1.valid_lines(), coherent);
  }
}

}  // namespace
}  // namespace raccd
