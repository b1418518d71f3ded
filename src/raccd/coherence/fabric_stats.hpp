// Fabric outcome/statistics types, split from fabric.hpp so stats-only
// consumers (SimStats, report, harness, benches) don't pull in the full
// cache/directory/NoC model and rebuild whenever the fabric changes.
#pragma once

#include <cstdint>

#include "raccd/common/field_list.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

/// Result of one access, as seen by the issuing core.
struct AccessOutcome {
  Cycle latency = 0;
  bool l1_hit = false;
  bool llc_hit = false;  ///< meaningful only when !l1_hit
};

#define RACCD_FABRIC_STATS_FIELDS(X)                                                             \
  /* L1 (aggregated over cores) */                                                               \
  X(std::uint64_t, l1_accesses) X(std::uint64_t, l1_hits) X(std::uint64_t, l1_misses)            \
  X(std::uint64_t, l1_evictions) X(std::uint64_t, l1_wb_coh) X(std::uint64_t, l1_wb_nc)          \
  X(std::uint64_t, l1_invals_sharer) /* invalidations from GetX/upgrades */                      \
  X(std::uint64_t, l1_invals_recall) /* invalidations from directory/LLC recalls */              \
  X(std::uint64_t, l1_flush_nc_lines) X(std::uint64_t, l1_flush_nc_wbs) /* raccd_invalidate */   \
  X(std::uint64_t, l1_flush_page_lines) X(std::uint64_t, l1_flush_page_wbs) /* PT recovery */    \
  /* LLC: hit-rate denominators count only demand lookups from L1 misses. */                     \
  X(std::uint64_t, llc_lookups) X(std::uint64_t, llc_hits) X(std::uint64_t, llc_misses)          \
  X(std::uint64_t, llc_nc_lookups) X(std::uint64_t, llc_nc_hits)                                 \
  X(std::uint64_t, llc_fills) X(std::uint64_t, llc_evictions)                                    \
  X(std::uint64_t, llc_inval_by_dir) X(std::uint64_t, llc_wb_mem)                                \
  X(std::uint64_t, llc_touches) /* every array access (energy basis) */                          \
  /* Directory. dir_accesses counts every read/update of the structure and is */                 \
  /* the paper's Fig. 7a metric and the dynamic-energy basis. */                                 \
  X(std::uint64_t, dir_accesses)                                                                 \
  X(std::uint64_t, dir_lookups) X(std::uint64_t, dir_hits) X(std::uint64_t, dir_misses)          \
  X(std::uint64_t, dir_allocs) X(std::uint64_t, dir_evictions) X(std::uint64_t, dir_recall_msgs) \
  X(std::uint64_t, dir_wb_updates)                                                               \
  X(std::uint64_t, dir_nc_to_coh) /* NC LLC line re-tracked on coherent access */                \
  X(std::uint64_t, dir_coh_to_nc) /* entry dropped on NC access (paper III-E) */                 \
  /* Transactions */                                                                             \
  X(std::uint64_t, coh_reads) X(std::uint64_t, coh_writes) X(std::uint64_t, upgrades)            \
  X(std::uint64_t, nc_reads) X(std::uint64_t, nc_writes)                                         \
  X(std::uint64_t, owner_probes)                                                                 \
  /* Socket locality (always zero on single-socket topologies): transactions */                  \
  /* whose requesting core and home bank sit on different sockets. */                            \
  X(std::uint64_t, dir_reqs_cross_socket) /* coherent misses + upgrades */                       \
  X(std::uint64_t, nc_reqs_cross_socket) /* directory-bypassing NC requests */                   \
  /* Memory */                                                                                   \
  X(std::uint64_t, mem_reads) X(std::uint64_t, mem_writes)                                       \
  X(std::uint64_t, mem_wb_wait_cycles) /* writeback NoC leg + write-queue wait */                \
  /* DRAM (dram/dram.hpp; all zero under the default kSimple flat-latency */                     \
  /* model). Row-buffer outcome of every serviced request, and the cycles */                     \
  /* read requests spent waiting before service (queues, write drains, bank */                   \
  /* conflicts, issue ordering). */                                                              \
  X(std::uint64_t, dram_row_hits) X(std::uint64_t, dram_row_misses)                              \
  X(std::uint64_t, dram_row_conflicts) X(std::uint64_t, dram_queue_wait_cycles)                  \
  /* Dynamic energy (pJ) */                                                                      \
  X(double, e_dir_pj) X(double, e_llc_pj) X(double, e_l1_pj)                                     \
  X(double, e_noc_pj) X(double, e_mem_pj)                                                        \
  /* DRAM per-op split of e_mem_pj under the kDdr model (replaces the flat */                    \
  /* mem_access_pj): activate / column-read / column-write / precharge. */                       \
  X(double, e_mem_act_pj) X(double, e_mem_rd_pj)                                                 \
  X(double, e_mem_wr_pj) X(double, e_mem_pre_pj)

struct FabricStats {
  RACCD_FIELDS(FabricStats, RACCD_FABRIC_STATS_FIELDS)

  void add(const FabricStats& o) noexcept { add_fields(*this, o); }
  [[nodiscard]] double llc_hit_ratio() const noexcept {
    return llc_lookups == 0 ? 0.0
                            : static_cast<double>(llc_hits) / static_cast<double>(llc_lookups);
  }
  [[nodiscard]] double dram_row_hit_ratio() const noexcept {
    const std::uint64_t total = dram_row_hits + dram_row_misses + dram_row_conflicts;
    return total == 0 ? 0.0 : static_cast<double>(dram_row_hits) / static_cast<double>(total);
  }
};

}  // namespace raccd
