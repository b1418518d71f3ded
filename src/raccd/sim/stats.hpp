// End-of-run statistics: everything the paper's figures plot, in one struct.
#pragma once

#include <cstdint>
#include <string>

#include "raccd/coherence/fabric_stats.hpp"
#include "raccd/common/field_list.hpp"
#include "raccd/core/adr_config.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/core/pt_classifier.hpp"
#include "raccd/modes/coh_mode.hpp"
#include "raccd/noc/mesh.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {

/// Sampled-simulation bookkeeping (SamplingConfig): how much of the run was
/// measured, the extrapolation factor applied to the fabric/NoC counters,
/// and per-metric 95% confidence half-widths from the window-to-window
/// variation of the measured rates. All zero (scale 1) for detailed runs.
#define RACCD_SAMPLING_STATS_FIELDS(X)                                         \
  X(std::uint64_t, active) /* 1 when the run used sampled simulation */        \
  X(std::uint64_t, windows) /* measured windows with at least one access */    \
  X(std::uint64_t, measured_tasks)                                             \
  X(std::uint64_t, warmup_tasks)                                               \
  X(std::uint64_t, ffwd_tasks)                                                 \
  X(std::uint64_t, measured_accesses)                                          \
  X(std::uint64_t, ffwd_accesses)                                              \
  X(double, scale, 1.0) /* total accesses / measured accesses */               \
  /* 95% CI half-widths on the extrapolated totals (absolute, same units as */ \
  /* the metric they annotate; the *_ci95 flat keys pair with the base keys */ \
  /* so raccd-report can widen its tolerance bands CI-aware). */               \
  X(double, cycles_ci95)                                                       \
  X(double, dir_accesses_ci95)                                                 \
  X(double, llc_hits_ci95)                                                     \
  X(double, noc_flits_ci95)                                                    \
  X(double, noc_flit_hops_ci95)                                                \
  X(double, dram_row_hits_ci95)                                                \
  X(double, dram_row_hit_rate_ci95)                                            \
  X(double, dir_occupancy_ci95)

struct SamplingStats {
  RACCD_FIELDS(SamplingStats, RACCD_SAMPLING_STATS_FIELDS)
};

/// Summary of one latency distribution (cycles): produced by
/// metrics::Histogram, reported by the `distribution` metric kind.
#define RACCD_DIST_SUMMARY_FIELDS(X) \
  X(std::uint64_t, count)            \
  X(double, mean)                    \
  X(double, p50)                     \
  X(double, p95)                     \
  X(double, p99)                     \
  X(double, max)

struct DistSummary {
  RACCD_FIELDS(DistSummary, RACCD_DIST_SUMMARY_FIELDS)
};

/// Open-loop service-run bookkeeping: per-request latency distributions
/// grouped by TaskNode::request. All zero for batch runs (`requests == 0`
/// gates the cache/JSON blocks, like SamplingStats::active).
#define RACCD_SERVICE_STATS_FIELDS(X)                               \
  X(std::uint64_t, requests) /* completed requests observed */      \
  X(DistSummary, queueing)  /* release -> first task start */       \
  X(DistSummary, service)   /* first task start -> last task end */ \
  X(DistSummary, e2e)       /* release -> last task end */

struct ServiceStats {
  RACCD_FIELDS(ServiceStats, RACCD_SERVICE_STATS_FIELDS)
};

#define RACCD_SIM_STATS_FIELDS(X)                                              \
  /* Identity */                                                               \
  X(CohMode, mode)                                                             \
  X(std::uint32_t, dir_ratio, 1)                                               \
  X(bool, adr_enabled)                                                         \
  /* Time (paper Fig. 6, 9) */                                                 \
  X(Cycle, cycles)                                                             \
  X(Cycle, busy_cycles) /* sum of per-core task execution time */              \
  X(double, core_utilization)                                                  \
  /* Subsystem stats */                                                        \
  X(FabricStats, fabric)                                                       \
  X(NocStats, noc)                                                             \
  X(NcrtStats, ncrt)                                                           \
  X(TlbStats, tlb)                                                             \
  X(PtClassifierStats, pt)                                                     \
  X(AdrStats, adr)                                                             \
  /* Runtime activity */                                                       \
  X(std::uint64_t, tasks)                                                      \
  X(std::uint64_t, edges)                                                      \
  X(std::uint64_t, accesses_replayed)                                          \
  X(Cycle, create_cycles)                                                      \
  X(Cycle, schedule_cycles)                                                    \
  X(Cycle, wakeup_cycles)                                                      \
  X(Cycle, register_cycles) /* raccd_register total */                         \
  X(Cycle, invalidate_cycles) /* raccd_invalidate total (incl. cache walks) */ \
  X(std::uint64_t, flushed_nc_lines)                                           \
  X(std::uint64_t, flushed_nc_wbs)                                             \
  /* Block classification (paper Fig. 2) */                                    \
  X(std::uint64_t, blocks_touched)                                             \
  X(std::uint64_t, blocks_noncoherent)                                         \
  X(double, noncoherent_block_fraction)                                        \
  /* Directory occupancy (paper Fig. 8) and ADR power state */                 \
  X(double, avg_dir_occupancy) /* vs configured capacity */                    \
  X(double, avg_dir_active_frac) /* powered fraction (ADR) */                  \
  /* Energy (paper Fig. 7d, 10): dynamic energy is fabric.e_*_pj. */           \
  X(double, dir_leak_energy_pj)                                                \
  X(SamplingStats, sampling) /* sampled simulation (zero for detailed runs) */ \
  X(ServiceStats, service) /* open-loop service runs (zero for batch runs) */

struct SimStats {
  RACCD_FIELDS(SimStats, RACCD_SIM_STATS_FIELDS)

  // Derived (paper Fig. 7b)
  [[nodiscard]] double llc_hit_ratio() const noexcept { return fabric.llc_hit_ratio(); }

  [[nodiscard]] std::string summary() const;
};

}  // namespace raccd
