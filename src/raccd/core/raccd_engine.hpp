// The RaCCD runtime/architecture interface (paper §III-A/B/C.2):
//
//  * raccd_register(start, size): iterate the virtual pages of a task
//    dependence region, translate each through the core's TLB (paying walks
//    on misses), collapse contiguous physical pages into byte-precise
//    physical ranges (paper Fig. 5), insert them into the per-core NCRT.
//  * raccd_invalidate(): clear the NCRT; the caller additionally triggers
//    the L1 NC-line flush through the fabric (Fabric::flush_nc_lines).
//
// The engine owns one NCRT per core and models the instruction latencies
// cycle-by-cycle as the paper does (§IV-A: register latency depends on the
// iterative translation; invalidate latency on the number of flushed lines).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "raccd/common/types.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/mem/page_table.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {

struct RaccdEngineConfig {
  std::uint32_t ncrt_entries = 32;
  Cycle instr_overhead_cycles = 4;     ///< issue/commit cost of either instruction
  Cycle per_page_lookup_cycles = 1;    ///< one TLB access per page of the region
  Cycle per_insert_cycles = 1;         ///< one NCRT write per collapsed range
};

struct RegisterOutcome {
  Cycle cycles = 0;
  std::uint32_t pages_translated = 0;
  std::uint32_t ranges_inserted = 0;
  std::uint32_t tlb_misses = 0;
  bool overflowed = false;  ///< at least one range rejected (stays coherent)
};

class RaccdEngine {
 public:
  /// `tlb_walk_cycles` is the page-walk cost of a TLB miss
  /// (TimingConfig::tlb_walk_cycles, the machine's one walk cost).
  RaccdEngine(std::uint32_t cores, const RaccdEngineConfig& cfg, Cycle tlb_walk_cycles);

  /// Execute raccd_register(va, size) on core `c`.
  RegisterOutcome register_region(CoreId c, VAddr va, std::uint64_t size, Tlb& tlb,
                                  const PageTable& pt);

  /// Execute the NCRT-clearing part of raccd_invalidate on core `c`;
  /// returns the instruction overhead (the cache walk cost is added by the
  /// fabric flush the caller performs).
  Cycle invalidate(CoreId c);

  /// NCRT consultation on an L1 miss (1-cycle cost charged by the caller).
  [[nodiscard]] bool is_noncoherent(CoreId c, PAddr pa) noexcept {
    return ncrt(c).lookup(pa);
  }

  [[nodiscard]] Ncrt& ncrt(CoreId c) noexcept { return *ncrts_[c]; }
  [[nodiscard]] const Ncrt& ncrt(CoreId c) const noexcept { return *ncrts_[c]; }
  [[nodiscard]] const RaccdEngineConfig& config() const noexcept { return cfg_; }

  /// Aggregate NCRT stats across cores.
  [[nodiscard]] NcrtStats total_stats() const noexcept;

 private:
  RaccdEngineConfig cfg_;
  Cycle tlb_walk_cycles_;
  std::vector<std::unique_ptr<Ncrt>> ncrts_;
};

}  // namespace raccd
