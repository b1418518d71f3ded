// Flat-structure equivalence suite: the hot-path structures (PagedLineMap,
// OpenPageMap, SoA tag probes, sorted+memo NCRT) are host-side optimizations
// only — the modelled machine must be bit-for-bit what the paper's
// structures would produce. Three layers of insurance:
//
//  1. Unit tests of the flat containers against their reference semantics
//     (default-zero line map, open addressing with backward-shift deletion).
//  2. Structure-level oracles: every L1/LLC/directory tag probe is checked
//     against a brute-force scan of the valid entries (including across
//     directory resize), and every NCRT lookup — answer and counters —
//     against a linear scan of its registered regions.
//  3. End-to-end golden: per-spec pinned digests of stats_to_text over a
//     tiny grid (both workload families, every coherence mode, both
//     topologies, both DRAM models, directory resize under ADR, an
//     open-loop service run, a sampled run). Plus the pinned default cache
//     key, so warm sweep caches stay valid (kStatsFormatVersion not bumped).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "raccd/apps/md5_core.hpp"
#include "raccd/cache/l1_cache.hpp"
#include "raccd/cache/llc_bank.hpp"
#include "raccd/coherence/directory.hpp"
#include "raccd/common/flat_map.hpp"
#include "raccd/common/rng.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"

namespace raccd {
namespace {

/// Brute-force oracle for a tag probe: the valid entry holding `line`, found
/// by scanning every valid entry of the structure (never more than one).
template <typename Entry, typename Bank>
const Entry* scan_find(const Bank& bank, LineAddr line) {
  const Entry* hit = nullptr;
  bank.for_each_valid([&](const Entry& e) {
    if (e.line == line) {
      EXPECT_EQ(hit, nullptr) << "line " << line << " resident twice";
      hit = &e;
    }
  });
  return hit;
}

/// Valid entries in `set`, by the same full scan.
template <typename Entry, typename Bank>
std::uint32_t scan_set_count(const Bank& bank, std::uint32_t set) {
  std::uint32_t n = 0;
  bank.for_each_valid([&](const Entry& e) { n += bank.set_of(e.line) == set ? 1 : 0; });
  return n;
}

template <typename Entry, typename Bank>
std::uint32_t scan_count(const Bank& bank) {
  std::uint32_t n = 0;
  bank.for_each_valid([&](const Entry&) { ++n; });
  return n;
}

// ---------------------------------------------------------------------------
// PagedLineMap

TEST(PagedLineMap, DefaultZeroWithoutAllocation) {
  PagedLineMap m;
  EXPECT_EQ(m.get(0), 0u);
  EXPECT_EQ(m.get(123456789), 0u);
  EXPECT_EQ(m.allocated_chunks(), 0u);  // get() never commits storage
}

TEST(PagedLineMap, SetGetRoundTripAndChunkGrowth) {
  PagedLineMap m;
  m.reserve_lines(1 << 20);
  m.set(0, 7);
  m.set(PagedLineMap::kChunkLines - 1, 8);  // last slot of chunk 0
  m.set(PagedLineMap::kChunkLines, 9);      // first slot of chunk 1
  m.set((1ull << 30), 10);                  // far past the reserve hint
  EXPECT_EQ(m.get(0), 7u);
  EXPECT_EQ(m.get(PagedLineMap::kChunkLines - 1), 8u);
  EXPECT_EQ(m.get(PagedLineMap::kChunkLines), 9u);
  EXPECT_EQ(m.get(1ull << 30), 10u);
  EXPECT_EQ(m.get(1), 0u);  // untouched neighbors stay zero
  EXPECT_EQ(m.allocated_chunks(), 3u);
  m.set(0, 0);  // storing zero is a store, not an erase
  EXPECT_EQ(m.get(0), 0u);
  EXPECT_EQ(m.allocated_chunks(), 3u);
}

TEST(PagedLineMap, MatchesHashMapUnderRandomTraffic) {
  PagedLineMap flat;
  std::unordered_map<LineAddr, std::uint64_t> ref;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const LineAddr line = rng.next_below(1 << 16);
    if (rng.next_below(2) == 0) {
      const std::uint64_t v = rng.next_below(1 << 20);
      flat.set(line, v);
      ref[line] = v;
    } else {
      const auto it = ref.find(line);
      EXPECT_EQ(flat.get(line), it == ref.end() ? 0u : it->second);
    }
  }
}

// ---------------------------------------------------------------------------
// OpenPageMap

TEST(OpenPageMap, InsertFindEraseClear) {
  OpenPageMap m(64);
  EXPECT_GE(m.capacity(), 256u);  // <= 25% load factor
  EXPECT_EQ(m.find(5), nullptr);
  m.insert(5, 50);
  m.insert(6, 60);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50u);
  EXPECT_EQ(*m.find(6), 60u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(*m.find(6), 60u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(6), nullptr);
}

TEST(OpenPageMap, BackwardShiftKeepsCollidedKeysFindable) {
  // Erase keys out of the middle of long probe runs under colliding traffic;
  // backward-shift deletion must keep every surviving key reachable.
  OpenPageMap m(128);
  std::unordered_map<PageNum, std::uint32_t> ref;
  Rng rng(12);
  for (int i = 0; i < 40000; ++i) {
    // Small key range forces home-slot collisions and multi-slot probe runs.
    const PageNum key = rng.next_below(192);
    if (ref.size() < 128 && rng.next_below(3) != 0) {
      if (ref.find(key) == ref.end()) {
        const std::uint32_t v = static_cast<std::uint32_t>(rng.next_below(1 << 20));
        m.insert(key, v);
        ref[key] = v;
      }
    } else {
      EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
    }
    const PageNum probe = rng.next_below(192);
    const auto it = ref.find(probe);
    std::uint32_t* got = m.find(probe);
    if (it == ref.end()) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, it->second);
    }
    EXPECT_EQ(m.size(), ref.size());
  }
}

TEST(OpenAddrMap, GrowsAndKeepsEveryKeyFindable) {
  // Unsized, as the dependence registry's begin index: inserts double the
  // table whenever the load would pass 25%, rehashing every key.
  OpenAddrMap<std::uint64_t> m;
  const std::uint32_t initial = m.capacity();
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(14);
  while (ref.size() < 20000) {
    const std::uint64_t key = rng.next_below(1ull << 40) * 8;  // byte addresses
    if (ref.count(key) != 0) continue;
    m.insert(key, key ^ 0x5A5A);
    ref[key] = key ^ 0x5A5A;
    ASSERT_LE(m.size() * 4, m.capacity());
  }
  EXPECT_GT(m.capacity(), initial);
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const std::uint64_t* got = m.find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, value);
  }
  std::uint32_t erased = 0;
  for (const auto& [key, value] : ref) {
    if ((value & 1) == 0) continue;
    EXPECT_TRUE(m.erase(key));
    ++erased;
  }
  for (const auto& [key, value] : ref) {
    EXPECT_EQ(m.find(key) != nullptr, (value & 1) == 0);
  }
  EXPECT_EQ(m.size(), ref.size() - erased);
}

// ---------------------------------------------------------------------------
// SoA tag probes vs brute-force scans

TEST(SoaTags, L1FindMatchesScanUnderRandomTraffic) {
  L1Cache l1{L1Geometry{}};
  const L1Cache& view = l1;
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    const LineAddr line = rng.next_below(2048);  // 4x capacity: many conflicts
    const L1Line* expect = scan_find<L1Line>(view, line);
    ASSERT_EQ(view.find(line), expect) << "line " << line;
    switch (rng.next_below(3)) {
      case 0:
        if (expect != nullptr) l1.touch(*expect);
        break;
      case 1: {
        if (expect != nullptr) break;
        const bool full = scan_set_count<L1Line>(view, l1.set_of(line)) == l1.ways();
        const L1Line victim = l1.fill(line, false, Mesi::kShared, false, i);
        EXPECT_EQ(victim.valid, full);
        if (victim.valid) {
          EXPECT_EQ(l1.set_of(victim.line), l1.set_of(line));
          EXPECT_EQ(view.find(victim.line), nullptr);
        }
        const L1Line* got = view.find(line);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got, scan_find<L1Line>(view, line));
        EXPECT_EQ(got->version, static_cast<std::uint64_t>(i));
        break;
      }
      default: {
        const L1Line old = l1.invalidate(line);
        EXPECT_EQ(old.valid, expect != nullptr);
        EXPECT_EQ(scan_find<L1Line>(view, line), nullptr);
        break;
      }
    }
    ASSERT_EQ(l1.valid_lines(), scan_count<L1Line>(view));
  }
}

TEST(SoaTags, LlcFindMatchesScanUnderRandomTraffic) {
  LlcGeometry geo;
  geo.lines_per_bank = 512;
  LlcBank llc{geo};
  const LlcBank& view = llc;
  Rng rng(14);
  for (int i = 0; i < 50000; ++i) {
    const LineAddr line = rng.next_below(4096) << geo.bank_bits;
    const LlcLine* expect = scan_find<LlcLine>(view, line);
    ASSERT_EQ(view.find(line), expect) << "line " << line;
    switch (rng.next_below(3)) {
      case 0:
        if (expect != nullptr) llc.touch(*expect);
        break;
      case 1: {
        if (expect != nullptr) break;
        const LlcLine victim = llc.peek_victim(line);
        // A victim is named exactly when the set is full.
        EXPECT_EQ(victim.valid,
                  scan_set_count<LlcLine>(view, llc.set_of(line)) == llc.ways());
        if (victim.valid) {
          EXPECT_EQ(llc.set_of(victim.line), llc.set_of(line));
          EXPECT_TRUE(llc.invalidate(victim.line).valid);  // it was resident
        }
        llc.fill(line, false, false, i);
        ASSERT_EQ(view.find(line), scan_find<LlcLine>(view, line));
        EXPECT_EQ(view.find(line)->version, static_cast<std::uint64_t>(i));
        break;
      }
      default: {
        const LlcLine old = llc.invalidate(line);
        EXPECT_EQ(old.valid, expect != nullptr);
        EXPECT_EQ(scan_find<LlcLine>(view, line), nullptr);
        break;
      }
    }
    ASSERT_EQ(llc.valid_lines(), scan_count<LlcLine>(view));
  }
}

TEST(SoaTags, DirectoryFindMatchesScanAcrossResize) {
  DirGeometry geo;
  geo.entries_per_bank = 256;
  DirectoryBank dir{geo};
  const DirectoryBank& view = dir;
  constexpr LineAddr kLines = 2048;
  Rng rng(15);
  auto random_op = [&](LineAddr line, std::uint64_t op) {
    const DirEntry* expect = scan_find<DirEntry>(view, line);
    ASSERT_EQ(view.find(line), expect) << "line " << line;
    switch (op) {
      case 0:
        if (expect != nullptr) dir.touch(*expect);
        break;
      case 1: {
        if (expect != nullptr) break;
        const bool full = scan_set_count<DirEntry>(view, dir.set_of(line)) == dir.ways();
        EXPECT_EQ(dir.has_free_way(line), !full);
        if (full) {
          const DirEntry victim = dir.peek_victim(line);
          ASSERT_TRUE(victim.valid);
          EXPECT_EQ(dir.set_of(victim.line), dir.set_of(line));
          EXPECT_TRUE(dir.remove(victim.line));
        }
        dir.alloc(line).sharers = line;
        EXPECT_EQ(view.find(line), scan_find<DirEntry>(view, line));
        break;
      }
      default:
        EXPECT_EQ(dir.remove(line), expect != nullptr);
        EXPECT_EQ(scan_find<DirEntry>(view, line), nullptr);
        break;
    }
    ASSERT_EQ(dir.valid_entries(), scan_count<DirEntry>(view));
  };
  auto traffic = [&] {
    for (int i = 0; i < 20000; ++i) {
      random_op(rng.next_below(kLines) << geo.bank_bits, rng.next_below(3));
    }
  };
  traffic();
  // Power down (displacing overfull sets), traffic, power back up.
  for (const std::uint32_t sets : {dir.active_sets() / 2, dir.total_sets()}) {
    std::vector<LineAddr> before;
    view.for_each_valid([&](const DirEntry& e) { before.push_back(e.line); });
    std::vector<DirEntry> displaced;
    const std::uint32_t moved = dir.resize(sets, displaced);
    EXPECT_EQ(dir.active_sets(), sets);
    EXPECT_EQ(dir.valid_entries(), moved);
    // Every entry either survives (re-indexed, payload intact) or is handed
    // back for recall because its new set overflowed.
    std::vector<LineAddr> after;
    view.for_each_valid([&](const DirEntry& e) {
      after.push_back(e.line);
      EXPECT_EQ(e.sharers, e.line);
    });
    for (const DirEntry& e : displaced) {
      ASSERT_TRUE(e.valid);
      EXPECT_EQ(e.sharers, e.line);
      EXPECT_EQ(view.find(e.line), nullptr);
      EXPECT_EQ(scan_set_count<DirEntry>(view, dir.set_of(e.line)), dir.ways());
      after.push_back(e.line);
    }
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    EXPECT_EQ(before, after);
    for (LineAddr l = 0; l < kLines; ++l) {
      const LineAddr line = l << geo.bank_bits;
      ASSERT_EQ(view.find(line), scan_find<DirEntry>(view, line)) << "line " << line;
    }
    traffic();
  }
}

// ---------------------------------------------------------------------------
// NCRT: sorted early-exit + memo must answer — and count — like a linear scan

TEST(NcrtMemo, AgreesWithLinearScanIncludingStats) {
  Ncrt ncrt(32);
  Rng rng(16);
  std::uint64_t lookups = 0, hits = 0, inserts = 0, clears = 0;
  const auto scan_contains = [&](PAddr pa) {
    for (const AddrRange& r : ncrt.entries()) {
      if (r.contains(pa)) return true;
    }
    return false;
  };
  const auto check = [&](PAddr pa) {
    const bool expect = scan_contains(pa);
    ASSERT_EQ(ncrt.lookup(pa), expect) << "pa " << pa;
    ++lookups;
    hits += expect ? 1 : 0;
  };
  for (int round = 0; round < 4; ++round) {
    // Register in shuffled order (the table sorts internally). Each start is
    // looked up just before its insert — a miss that memoizes the gap around
    // it — and just after, so an insert must invalidate that memo.
    std::vector<std::uint64_t> starts;
    for (std::uint64_t i = 0; i < 24; ++i) starts.push_back(i * 0x1000);
    for (std::size_t i = starts.size(); i > 1; --i) {
      std::swap(starts[i - 1], starts[rng.next_below(i)]);
    }
    for (const std::uint64_t start : starts) {
      check(start);
      EXPECT_TRUE(ncrt.insert(start, start + 0x800));
      ++inserts;
      check(start);
    }
    EXPECT_TRUE(std::is_sorted(ncrt.entries().begin(), ncrt.entries().end(),
                               [](const AddrRange& a, const AddrRange& b) {
                                 return a.begin < b.begin;
                               }));
    for (int i = 0; i < 20000; ++i) {
      // Streams through regions (memo fast path) plus random probes that
      // also land in the gaps between regions.
      check((i % 3 == 0) ? rng.next_below(24 * 0x1000)
                         : (rng.next_below(24) * 0x1000 + (i & 0x7FF)));
    }
    EXPECT_EQ(ncrt.stats().lookups, lookups);
    EXPECT_EQ(ncrt.stats().hits, hits);
    ncrt.clear();
    ++clears;
  }
  EXPECT_EQ(ncrt.stats().inserts, inserts);
  EXPECT_EQ(ncrt.stats().clears, clears);
  EXPECT_EQ(ncrt.stats().overflows, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end golden + pinned cache key

TEST(ThroughputGolden, DefaultRunSpecKeyIsPinned) {
  // The structure swap must not perturb cache identity: warm sweep caches
  // (BENCH_baseline.json and friends) stay valid only while this exact key
  // format and kStatsFormatVersion survive.
  EXPECT_EQ(RunSpec{}.key(), "jacobi-small-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5");
  EXPECT_EQ(kStatsFormatVersion, 5u);
}

/// The pinned grid: both workload families at tiny x every coherence mode x
/// flat/numa2 x simple/ddr, plus a 1:8 directory under ADR (directory
/// resize) for FullCoh and RaCCD, plus an open-loop service run, plus one
/// sampled run (pins the sampled scale-up and the sampling cache keys).
std::vector<RunSpec> pinned_grid() {
  std::vector<RunSpec> specs;
  const CohMode modes[] = {CohMode::kFullCoh, CohMode::kPT, CohMode::kRaCCD, CohMode::kWbNC};
  for (const char* app : {"jacobi", "synthetic"}) {
    for (const CohMode mode : modes) {
      for (const char* topo : {"flat", "numa2"}) {
        for (const char* dram : {"simple", "ddr"}) {
          RunSpec s;
          s.app = app;
          s.size = SizeClass::kTiny;
          s.mode = mode;
          s.topo = topo;
          s.dram = dram;
          specs.push_back(s);
        }
      }
    }
    for (const CohMode mode : {CohMode::kFullCoh, CohMode::kRaCCD}) {
      RunSpec s;
      s.app = app;
      s.size = SizeClass::kTiny;
      s.mode = mode;
      s.dir_ratio = 8;
      s.adr = true;
      specs.push_back(s);
    }
  }
  RunSpec service;
  EXPECT_EQ(service.set_workload_ref("service:requests=512,load=0.4"), "");
  service.size = SizeClass::kTiny;
  service.mode = CohMode::kRaCCD;
  specs.push_back(service);
  RunSpec sampled;
  sampled.app = "jacobi";
  sampled.size = SizeClass::kTiny;
  sampled.mode = CohMode::kRaCCD;
  sampled.sampling = "8/2";
  specs.push_back(sampled);
  return specs;
}

/// MD5 of stats_to_text for every pinned_grid() spec, keyed by
/// RunSpec::key(). Any change to the modelled machine shows up here.
const std::unordered_map<std::string, std::string>& pinned_digests() {
  static const std::unordered_map<std::string, std::string> kDigests = {
      {"jacobi-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5",
       "edda2af80158ec784e3e58613b9d8004"},
      {"jacobi-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "7298f910a4a5029967427bcf7797bf85"},
      {"jacobi-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "18c8459cb260c3d6429e20f7ed53dc66"},
      {"jacobi-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "eca442a60b768aa28383ba028e3f9a03"},
      {"jacobi-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5",
       "1f1c28346385a8d3adb8d0d123db7f5f"},
      {"jacobi-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "afbd017a967e09b80d3065afe3b49c7a"},
      {"jacobi-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "533e84048a3418949f4c9f87f632523d"},
      {"jacobi-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "bde265453564e3d53cee295aa4fac77a"},
      {"jacobi-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5",
       "4705aed0c2baddef8b97fc8e80d9839b"},
      {"jacobi-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "57c4f7bcd102c79b63f122fb238c8a3d"},
      {"jacobi-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "135f70f259755657711373d331e6f3f8"},
      {"jacobi-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "b0e5922418b7793d583ddf2ad85129be"},
      {"jacobi-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5",
       "7ac33a219ddfd50c2842d0e791a66c0c"},
      {"jacobi-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "287b9a2fa246c2c1736f75a7199c2917"},
      {"jacobi-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "6f619f96dcbac93a176e1ef2f5a9c970"},
      {"jacobi-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "dcf2fb349017345a6aaf3a66f5267af1"},
      {"jacobi-tiny-FullCoh-d8-adr-s42-nl1-ne32-cont-fifo-v5",
       "5933122c5a0fe2742c423657497aa882"},
      {"jacobi-tiny-RaCCD-d8-adr-s42-nl1-ne32-cont-fifo-v5",
       "3317480e8d20cf04a28e35231dba4a60"},
      {"synthetic-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5",
       "957ab1a70a6c0ab6cc9eb19874b3cb2b"},
      {"synthetic-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "5c99762985d63c5da4a8270ae3e6f87a"},
      {"synthetic-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "9679f9f0a8ab6e3e6b4c2792e5ac9c5e"},
      {"synthetic-tiny-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "ad23e0980a7be107892adb09e023be1e"},
      {"synthetic-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5",
       "51d2c5cdd82a3ededdd66ebe9d05b715"},
      {"synthetic-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "46c5b8a953114cbcbc925552a445e484"},
      {"synthetic-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "64f953f4eacce1a967bbcfe54e125f0c"},
      {"synthetic-tiny-PT-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "833fbafc0d015e2fc258acf75ea3dd3c"},
      {"synthetic-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5",
       "450cf97e3a2734605e56d93a917081fb"},
      {"synthetic-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "7e801fe06598ee8e05373d2b7b70a084"},
      {"synthetic-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "72e4e8f28b9a1ddd2cf0da75f85b2798"},
      {"synthetic-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "15d25a72cee77fdb242a60958bb7bde7"},
      {"synthetic-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5",
       "6fd74a5c503c689f018f8cf03af8e0d0"},
      {"synthetic-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr",
       "b5e39295b0e1ef9c9724f9d76953f66a"},
      {"synthetic-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2",
       "0cbaecacf5761cae43f6e71e44d32373"},
      {"synthetic-tiny-WbNC-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2-dram=ddr",
       "6f047a858dbbcc46216470340f94bf1d"},
      {"synthetic-tiny-FullCoh-d8-adr-s42-nl1-ne32-cont-fifo-v5",
       "48681a3530c4a25653c1d7a76da5e410"},
      {"synthetic-tiny-RaCCD-d8-adr-s42-nl1-ne32-cont-fifo-v5",
       "3ae7456287f765c070832edbbfe3e777"},
      {"service-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-p{load=0.4,requests=512}",
       "426f2aca8ab6ca1965794a28c193deab"},
      {"jacobi-tiny-RaCCD-d1-s42-nl1-ne32-cont-fifo-v5-smp8-2-1",
       "99e1c0467b92c6fc32680d6d0100432c"},
  };
  return kDigests;
}

TEST(ThroughputGolden, PinnedGridStatsDigests) {
  const std::vector<RunSpec> specs = pinned_grid();
  ASSERT_EQ(specs.size(), 38u);
  ASSERT_EQ(pinned_digests().size(), specs.size());

  RunOptions opts;
  opts.use_cache = false;  // every spec must actually simulate
  opts.jobs = 2;
  const std::vector<SimStats> stats = run_all(specs, opts);
  ASSERT_EQ(stats.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string key = specs[i].key();
    const std::string text = stats_to_text(stats[i]);
    const std::string digest = apps::md5_hex(apps::md5_hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size())));
    const auto it = pinned_digests().find(key);
    ASSERT_NE(it, pinned_digests().end()) << "no pinned digest for " << key;
    EXPECT_EQ(digest, it->second) << "stats changed for " << key << ":\n" << text;
  }
}

}  // namespace
}  // namespace raccd
