// Simulation configuration: coherence modes and machine presets.
//
// Two presets:
//  * Paper  — paper Table I verbatim (32 MB LLC, 524288-entry directory).
//    Faithful but slow with full-size inputs; used with --paper.
//  * Scaled — the default: the same 16-core organisation with the LLC and
//    directory scaled down 16x so that the benchmarks' (scaled) working sets
//    keep the paper's working-set : LLC : directory-coverage ratios, which is
//    what the shape of every figure depends on (see DESIGN.md substitution #3).
//
// The directory-size sweep of the evaluation uses ratios 1:N, N in
// {1,2,4,8,16,64,256} (paper Fig. 6/7, Table III): a 1:N directory has N
// times fewer entries than the LLC has lines.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "raccd/coherence/fabric.hpp"
#include "raccd/core/adr_config.hpp"
#include "raccd/core/raccd_engine.hpp"
#include "raccd/mem/phys_memory.hpp"
#include "raccd/modes/coh_mode.hpp"
#include "raccd/runtime/scheduler.hpp"

namespace raccd {

/// The paper's directory-reduction sweep (Fig. 6/7, Table III).
inline constexpr std::array<std::uint32_t, 7> kDirRatios{1, 2, 4, 8, 16, 64, 256};

/// Phase-resolved stat sampling (metrics/series.hpp): every `interval`
/// cycles the machine snapshots the selected metrics into a bounded Series.
/// Defined here (not in the metrics layer) so SimConfig can carry it without
/// inverting the layering; the sampler itself lives above in metrics/.
struct SeriesConfig {
  Cycle interval = 0;    ///< sampling period in cycles; 0 = disabled
  std::string metrics;   ///< comma-separated metric names; empty = default subset
};

/// SMARTS-style sampled simulation (DESIGN.md substitution #12): tasks are
/// numbered in global start order and each period of `period` tasks splits
/// into a detailed-warmup prefix (`warmup` tasks, full timing, stats into a
/// scratch bucket), a measured window (`window` tasks, full timing, stats
/// measured), and a functional fast-forward remainder (state kept warm —
/// TLB, L1/LLC/directory tags, NCRT, PT classifier, DRAM row buffers, task
/// graph — but no NoC routing, DRAM queueing, or stall arithmetic; the clock
/// dilates by the running mean measured stall per access). Measured windows
/// extrapolate to run totals with per-metric 95% confidence intervals.
/// `window >= period` disables fast-forwarding entirely (an all-measured
/// sampled run reproduces the detailed SimStats exactly).
struct SamplingConfig {
  bool enabled = false;
  std::uint32_t period = 0;  ///< tasks per sampling period
  std::uint32_t window = 0;  ///< measured tasks per period
  std::uint32_t warmup = 1;  ///< detailed-warmup tasks preceding each window
};

/// Parse "period/window[/warmup]" (warmup defaults to 1) into `cfg` with
/// enabled=true. Returns "" on success or an error message.
[[nodiscard]] std::string parse_sampling(std::string_view token, SamplingConfig& cfg);

struct SimConfig {
  CohMode mode = CohMode::kRaCCD;
  FabricConfig fabric{};
  RaccdEngineConfig raccd{};
  AdrConfig adr{};
  std::uint32_t tlb_entries = 256;
  std::uint64_t phys_mb = 512;  ///< simulated physical memory
  AllocPolicy alloc_policy = AllocPolicy::kContiguous;
  SchedPolicy sched = SchedPolicy::kFifo;
  std::uint64_t seed = 42;
  bool enable_checker = false;
  SeriesConfig series{};  ///< phase-resolved sampling (off by default)
  SamplingConfig sampling{};  ///< sampled simulation (off by default)

  /// Default machine: 16 cores, 32 KB 2-way L1s, 2 MB LLC (128 KB/bank),
  /// directory 1:1 (2048 entries/bank).
  [[nodiscard]] static SimConfig scaled(CohMode mode = CohMode::kRaCCD);

  /// Paper Table I machine: 32 MB LLC (2 MB/bank), directory 1:1
  /// (32768 entries/bank).
  [[nodiscard]] static SimConfig paper(CohMode mode = CohMode::kRaCCD);

  /// Shrink the directory to 1:N of the LLC line count (paper Fig. 6/7).
  void set_dir_ratio(std::uint32_t n);

  /// Apply a machine-shape token ("flat", "cmesh[<K>]", "numa<S>" or
  /// "numa<S>x<C>") to fabric.topo; numa<S>x<C> also rescales the core count
  /// (per-bank LLC/directory sizes stay fixed, so totals scale with cores).
  /// Returns "" on success or an error message.
  [[nodiscard]] std::string apply_topology(std::string_view token);

  /// Apply a DRAM-model token ("simple", or "ddr" with '-'-separated
  /// modifiers — see dram/dram.hpp) to fabric.dram. Returns "" or an error.
  [[nodiscard]] std::string apply_dram(std::string_view token);

  /// Apply a sampled-simulation token ("period/window[/warmup]") to
  /// `sampling`. Returns "" or an error.
  [[nodiscard]] std::string apply_sampling(std::string_view token);

  [[nodiscard]] std::uint32_t dir_ratio() const noexcept {
    return fabric.llc.lines_per_bank / fabric.dir.entries_per_bank;
  }
  [[nodiscard]] std::uint64_t total_dir_entries() const noexcept {
    return static_cast<std::uint64_t>(fabric.dir.entries_per_bank) * fabric.cores;
  }
};

}  // namespace raccd
