// Dependence registry tests: RAW/WAR/WAW derivation over byte ranges with
// splitting, the OmpSs region-dependence semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "raccd/common/rng.hpp"
#include "raccd/runtime/dep_registry.hpp"

namespace raccd {
namespace {

std::vector<TaskId> preds_of(DepRegistry& reg, TaskId t,
                             std::initializer_list<DepSpec> deps) {
  std::vector<TaskId> out;
  for (const DepSpec& d : deps) reg.register_dep(t, d, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(DepRegistry, RawDependence) {
  DepRegistry reg;
  EXPECT_TRUE(preds_of(reg, 0, {DepSpec{0, 100, DepKind::kOut}}).empty());
  const auto preds = preds_of(reg, 1, {DepSpec{0, 100, DepKind::kIn}});
  EXPECT_EQ(preds, std::vector<TaskId>{0});
}

TEST(DepRegistry, NoFalseDependenceOnDisjointRanges) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 100, DepKind::kOut}});
  const auto preds = preds_of(reg, 1, {DepSpec{100, 100, DepKind::kIn}});
  EXPECT_TRUE(preds.empty());
}

TEST(DepRegistry, PartialOverlapSplitsSegments) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 100, DepKind::kOut}});
  preds_of(reg, 1, {DepSpec{100, 100, DepKind::kOut}});
  const auto preds = preds_of(reg, 2, {DepSpec{50, 100, DepKind::kIn}});
  EXPECT_EQ(preds, (std::vector<TaskId>{0, 1}));
}

TEST(DepRegistry, WarDependence) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  preds_of(reg, 1, {DepSpec{0, 64, DepKind::kIn}});
  preds_of(reg, 2, {DepSpec{0, 64, DepKind::kIn}});
  const auto preds = preds_of(reg, 3, {DepSpec{0, 64, DepKind::kOut}});
  // WAW on 0 plus WAR on both readers.
  EXPECT_EQ(preds, (std::vector<TaskId>{0, 1, 2}));
}

TEST(DepRegistry, WawChain) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  EXPECT_EQ(preds_of(reg, 1, {DepSpec{0, 64, DepKind::kOut}}), std::vector<TaskId>{0});
  EXPECT_EQ(preds_of(reg, 2, {DepSpec{0, 64, DepKind::kOut}}), std::vector<TaskId>{1});
  EXPECT_EQ(reg.last_writer_at(0), 2u);
}

TEST(DepRegistry, InoutActsAsReadAndWrite) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  const auto p1 = preds_of(reg, 1, {DepSpec{0, 64, DepKind::kInout}});
  EXPECT_EQ(p1, std::vector<TaskId>{0});
  // Reader after inout depends on the inout task.
  const auto p2 = preds_of(reg, 2, {DepSpec{0, 64, DepKind::kIn}});
  EXPECT_EQ(p2, std::vector<TaskId>{1});
}

TEST(DepRegistry, ReadersDoNotDependOnEachOther) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  EXPECT_EQ(preds_of(reg, 1, {DepSpec{0, 64, DepKind::kIn}}), std::vector<TaskId>{0});
  EXPECT_EQ(preds_of(reg, 2, {DepSpec{0, 64, DepKind::kIn}}), std::vector<TaskId>{0});
}

TEST(DepRegistry, GaussSeidelWavefrontShape) {
  // Row blocks with inout-own + in-halo deps must produce the wavefront:
  // block b of iteration k depends on b-1 (same iter) and b+1 (prev iter).
  DepRegistry reg;
  constexpr std::uint64_t kRow = 64;  // bytes per halo row
  constexpr std::uint64_t kBlockRows = 4;
  const auto block_range = [&](std::uint32_t b) {
    return DepSpec{b * kBlockRows * kRow, kBlockRows * kRow, DepKind::kInout};
  };
  const auto halo_above = [&](std::uint32_t b) {
    return DepSpec{b * kBlockRows * kRow - kRow, kRow, DepKind::kIn};
  };
  const auto halo_below = [&](std::uint32_t b) {
    return DepSpec{(b + 1) * kBlockRows * kRow, kRow, DepKind::kIn};
  };
  // Iteration 0: blocks 0..2 (task ids 0..2).
  preds_of(reg, 0, {block_range(0), halo_below(0)});
  const auto p1 = preds_of(reg, 1, {block_range(1), halo_above(1), halo_below(1)});
  EXPECT_EQ(p1, std::vector<TaskId>{0});  // reads row written by block 0
  const auto p2 = preds_of(reg, 2, {block_range(2), halo_above(2)});
  EXPECT_EQ(p2, std::vector<TaskId>{1});
  // Iteration 1 block 0 (task 3): depends on its own block (task 0 wrote it,
  // task 1 read its last row... precisely: WAW with 0, WAR with 1) and RAW
  // on block 1's first row (task 1).
  const auto p3 = preds_of(reg, 3, {block_range(0), halo_below(0)});
  EXPECT_EQ(p3, (std::vector<TaskId>{0, 1}));
}

TEST(DepRegistry, ManySmallRangesStress) {
  DepRegistry reg;
  std::vector<TaskId> preds;
  for (TaskId t = 0; t < 200; ++t) {
    preds.clear();
    reg.register_dep(t, DepSpec{(t % 50) * 16ull, 16, DepKind::kInout}, preds);
    // The registry may report a predecessor through both the RAW and WAR
    // paths; callers dedupe (see Runtime::create_task).
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    if (t >= 50) {
      ASSERT_EQ(preds.size(), 1u);
      EXPECT_EQ(preds[0], t - 50);
    }
  }
  EXPECT_LE(reg.segment_count(), 50u);
}

// ---------------------------------------------------------------------------
// Differential check against a per-byte oracle

/// Brute-force dependence analysis: the last writer and the readers since
/// that write, tracked for every byte of [base, base + span).
class ByteOracle {
 public:
  ByteOracle(VAddr base, std::uint64_t span) : base_(base), bytes_(span) {}

  void register_dep(TaskId t, const DepSpec& dep, std::vector<TaskId>& preds) {
    const bool reads = dep.kind != DepKind::kOut;
    const bool writes = dep.kind != DepKind::kIn;
    for (VAddr a = dep.addr; a < dep.addr + dep.size; ++a) {
      Byte& b = bytes_.at(a - base_);
      if (b.writer != kNoTask && b.writer != t) preds.push_back(b.writer);
      if (writes) {
        for (const TaskId r : b.readers) {
          if (r != t) preds.push_back(r);
        }
        b.writer = t;
        b.readers.clear();
      }
      if (reads) b.readers.push_back(t);
    }
  }

  [[nodiscard]] TaskId last_writer_at(VAddr addr) const {
    if (addr < base_ || addr - base_ >= bytes_.size()) return kNoTask;
    return bytes_[addr - base_].writer;
  }

 private:
  struct Byte {
    TaskId writer = kNoTask;
    std::vector<TaskId> readers;
  };
  VAddr base_;
  std::vector<Byte> bytes_;
};

std::vector<TaskId> sorted_unique(std::vector<TaskId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Register `tasks` (each a dependence list) in both the registry and the
/// oracle; every task's deduplicated predecessor set must match, and so must
/// last_writer_at at random addresses in and around the span after each task.
void expect_matches_oracle(const std::vector<std::vector<DepSpec>>& tasks, VAddr base,
                           std::uint64_t span, std::uint64_t seed) {
  DepRegistry reg;
  ByteOracle oracle(base, span);
  Rng rng(seed);
  for (TaskId t = 0; t < tasks.size(); ++t) {
    std::vector<TaskId> got, want;
    for (const DepSpec& d : tasks[t]) {
      reg.register_dep(t, d, got);
      oracle.register_dep(t, d, want);
    }
    ASSERT_EQ(sorted_unique(got), sorted_unique(want)) << "task " << t << " seed " << seed;
    for (int i = 0; i < 8; ++i) {
      const VAddr a = base - 64 + rng.next_below(span + 128);
      ASSERT_EQ(reg.last_writer_at(a), oracle.last_writer_at(a))
          << "addr " << a << " after task " << t << " seed " << seed;
    }
  }
}

DepKind random_kind(Rng& rng) {
  return static_cast<DepKind>(rng.next_below(3));
}

TEST(DepRegistryOracle, RandomOverlapsMatchPerByteOracle) {
  // Short and long ranges over a small window: partial overlaps, ranges
  // nested inside earlier ones and covering several, exact repeats of
  // earlier ranges (the boundary-hit path), zero-size deps, and several deps
  // of one task touching the same bytes.
  constexpr VAddr kBase = 0x10000;
  constexpr std::uint64_t kSpan = 4096;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<DepSpec>> tasks(400);
    std::vector<DepSpec> seen;
    for (auto& deps : tasks) {
      const std::uint64_t n = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        DepSpec d;
        const std::uint64_t pick = rng.next_below(8);
        if (pick == 0) {
          d.size = 0;
          d.addr = kBase + rng.next_below(kSpan);
        } else if (pick <= 2 && !seen.empty()) {
          d = seen[rng.next_below(seen.size())];  // same range again
        } else {
          d.size = 1 + rng.next_below(pick <= 5 ? 64 : 1024);
          d.addr = kBase + rng.next_below(kSpan - d.size + 1);
          seen.push_back(d);
        }
        d.kind = random_kind(rng);
        deps.push_back(d);
      }
    }
    expect_matches_oracle(tasks, kBase, kSpan, seed);
  }
}

TEST(DepRegistryOracle, ServiceShapedStreamMatchesPerByteOracle) {
  // The open-loop service pattern: 8 B shared slots probed and occasionally
  // updated, private 2 KB scratch ranges written, chained and read back, one
  // 8 B result word per request — plus an unaligned 2 KB range sweeping
  // across slots and scratch to split them mid-segment.
  constexpr std::uint64_t kSlots = 64;
  constexpr std::uint64_t kScratchBytes = 2048;
  constexpr std::uint64_t kRequests = 24;
  constexpr VAddr kBase = 0x200000;
  constexpr VAddr kShared = kBase;
  constexpr VAddr kScratch = kShared + kSlots * 8;
  constexpr VAddr kResults = kScratch + 8 * kScratchBytes;
  constexpr std::uint64_t kSpan = kResults + kRequests * 8 - kBase;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<DepSpec>> tasks;
    for (std::uint64_t r = 0; r < kRequests; ++r) {
      const VAddr scratch = kScratch + (r % 8) * kScratchBytes;
      tasks.push_back({{scratch, kScratchBytes, DepKind::kOut}});
      for (int k = 0; k < 3; ++k) {
        std::vector<DepSpec> lookup{{scratch, kScratchBytes, DepKind::kInout}};
        for (int p = 0; p < 4; ++p) {
          lookup.push_back({kShared + rng.next_below(kSlots) * 8, 8, DepKind::kIn});
        }
        if (k == 2 && rng.next_below(4) == 0) {
          lookup.push_back({kShared + rng.next_below(kSlots) * 8, 8, DepKind::kInout});
        }
        tasks.push_back(std::move(lookup));
      }
      tasks.push_back({{scratch, kScratchBytes, DepKind::kIn},
                       {kResults + r * 8, 8, DepKind::kOut}});
      if (r % 6 == 5) {
        const VAddr a = kBase + 4 + rng.next_below(kSpan - kScratchBytes - 8);
        tasks.push_back({{a, kScratchBytes, random_kind(rng)}});
      }
    }
    expect_matches_oracle(tasks, kBase, kSpan, seed);
  }
}

}  // namespace
}  // namespace raccd
