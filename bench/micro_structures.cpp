// google-benchmark microbenchmarks of the hardware-model hot paths: these
// bound the host cost per simulated event, which is what makes the full
// figure sweeps tractable.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "raccd/cache/l1_cache.hpp"
#include "raccd/coherence/fabric.hpp"
#include "raccd/common/flat_map.hpp"
#include "raccd/common/rng.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/dram/dram.hpp"
#include "raccd/mem/page_table.hpp"
#include "raccd/runtime/dep_registry.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {
namespace {

void BM_NcrtLookup(benchmark::State& state) {
  Ncrt ncrt(32);
  for (std::uint64_t i = 0; i < 32; ++i) {
    ncrt.insert(i * 0x100000, i * 0x100000 + 0x10000);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ncrt.lookup(rng.next_below(32) * 0x100000 + 0x8000));
  }
}
BENCHMARK(BM_NcrtLookup);

void BM_L1FindHit(benchmark::State& state) {
  L1Cache l1(L1Geometry{});
  for (LineAddr l = 0; l < 512; ++l) l1.fill(l, false, Mesi::kShared, false, 0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.find(rng.next_below(512)));
  }
}
BENCHMARK(BM_L1FindHit);

void BM_TlbAccess(benchmark::State& state) {
  Tlb tlb(256);
  PageTable pt;
  for (PageNum v = 0; v < 4096; ++v) pt.map(v, v);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access(rng.next_below(512), pt));
  }
}
BENCHMARK(BM_TlbAccess);

void BM_MemVersionFlat(benchmark::State& state) {
  // The memory version map access pattern of a replay: write a line on
  // writeback, read lines on fills — line-granular, dense in a bounded
  // physical range.
  PagedLineMap map;
  map.reserve_lines(1 << 16);
  for (LineAddr l = 0; l < (1 << 16); l += 7) map.set(l, l);
  Rng rng(5);
  for (auto _ : state) {
    const LineAddr l = rng.next_below(1 << 16);
    benchmark::DoNotOptimize(map.get(l));
    if ((l & 7) == 0) map.set(l, l);
  }
}
BENCHMARK(BM_MemVersionFlat);

void BM_MemVersionHash(benchmark::State& state) {
  // Same access pattern through a std::unordered_map for comparison.
  std::unordered_map<LineAddr, std::uint64_t> map;
  for (LineAddr l = 0; l < (1 << 16); l += 7) map[l] = l;
  Rng rng(5);
  for (auto _ : state) {
    const LineAddr l = rng.next_below(1 << 16);
    const auto it = map.find(l);
    benchmark::DoNotOptimize(it == map.end() ? 0 : it->second);
    if ((l & 7) == 0) map[l] = l;
  }
}
BENCHMARK(BM_MemVersionHash);

void BM_FabricL1Hit(benchmark::State& state) {
  FabricConfig cfg;
  cfg.cores = 16;
  Fabric fabric(cfg, nullptr);
  fabric.access(0, 1, false, false, 0);
  Cycle t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.access(0, 1, false, false, t++));
  }
}
BENCHMARK(BM_FabricL1Hit);

void BM_FabricMissStream(benchmark::State& state) {
  FabricConfig cfg;
  cfg.cores = 16;
  Fabric fabric(cfg, nullptr);
  Cycle t = 0;
  LineAddr l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.access(l & 15, l, false, false, t++));
    ++l;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricMissStream);

void BM_DramReadStream(benchmark::State& state) {
  // Sequential lines: mostly row hits, periodic activates — the fast path of
  // the queue/bank structures behind every simulated LLC miss.
  DramConfig cfg;
  cfg.model = DramModel::kDdr;
  DramController dc(cfg);
  Cycle t = 0;
  LineAddr l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.read(l++, t));
    t += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramReadStream);

void BM_DramMixedRandom(benchmark::State& state) {
  // Random reads + writebacks: row conflicts plus queue-slot management
  // (erase/min scans) — the worst case of the closed-form DRAM model.
  DramConfig cfg;
  cfg.model = DramModel::kDdr;
  cfg.channels = 2;
  DramController dc(cfg);
  Rng rng(6);
  Cycle t = 0;
  for (auto _ : state) {
    const LineAddr l = rng.next_below(1 << 16);
    if ((l & 3) == 0) {
      benchmark::DoNotOptimize(dc.write(l, t));
    } else {
      benchmark::DoNotOptimize(dc.read(l, t));
    }
    t += 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramMixedRandom);

void BM_DepRegistryRegister(benchmark::State& state) {
  DepRegistry reg;
  std::vector<TaskId> preds;
  TaskId t = 0;
  for (auto _ : state) {
    preds.clear();
    reg.register_dep(t, DepSpec{(t % 64) * 4096ull, 4096, DepKind::kInout}, preds);
    benchmark::DoNotOptimize(preds.data());
    ++t;
  }
}
BENCHMARK(BM_DepRegistryRegister);

void BM_DepRegistryServiceShaped(benchmark::State& state) {
  // The open-loop service stream at `small`: 4096 private 2 KB scratch
  // ranges, 8192 shared 8 B slots and 4096 8 B result words, ~16K segments
  // once warm. A request is parse (out scratch), three lookups (inout
  // scratch + eight 8 B probes; the last also updates one slot) and a
  // respond (in scratch, out result). One iteration registers one request.
  constexpr std::uint64_t kRequests = 4096;
  constexpr std::uint64_t kSlots = 8192;
  constexpr std::uint64_t kScratchBytes = 2048;
  constexpr VAddr kShared = 0;
  constexpr VAddr kScratch = 1ull << 20;
  constexpr VAddr kResults = kScratch + kRequests * kScratchBytes;
  DepRegistry reg;
  std::vector<TaskId> preds;
  Rng rng(6);
  TaskId t = 0;
  std::uint64_t r = 0;
  std::int64_t deps = 0;
  const auto reg_dep = [&](VAddr a, std::uint64_t size, DepKind k) {
    reg.register_dep(t, DepSpec{a, size, k}, preds);
    ++deps;
  };
  const auto request = [&] {
    const VAddr scratch = kScratch + (r % kRequests) * kScratchBytes;
    preds.clear();
    reg_dep(scratch, kScratchBytes, DepKind::kOut);
    ++t;
    for (int k = 0; k < 3; ++k) {
      reg_dep(scratch, kScratchBytes, DepKind::kInout);
      for (int p = 0; p < 8; ++p) {
        reg_dep(kShared + rng.next_below(kSlots) * 8, 8, DepKind::kIn);
      }
      if (k == 2) reg_dep(kShared + (r % kSlots) * 8, 8, DepKind::kInout);
      ++t;
    }
    reg_dep(scratch, kScratchBytes, DepKind::kIn);
    reg_dep(kResults + (r % kRequests) * 8, 8, DepKind::kOut);
    ++t;
    ++r;
  };
  for (std::uint64_t i = 0; i < kRequests; ++i) request();
  deps = 0;
  for (auto _ : state) {
    request();
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(deps);
  state.counters["segments"] = static_cast<double>(reg.segment_count());
}
BENCHMARK(BM_DepRegistryServiceShaped);

}  // namespace
}  // namespace raccd

BENCHMARK_MAIN();
