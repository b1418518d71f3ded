#include "raccd/metrics/metric_schema.hpp"

#include <algorithm>
#include <cstdio>

#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"

namespace raccd {
namespace {

// One descriptor per line: dotted name, flat emitter key, unit, kind, doc,
// accessor expression over `s`. The lambda decays to a plain function
// pointer, so the table stays POD-cheap.
#define RACCD_METRIC(NAME, KEY, UNIT, KIND, DOC, EXPR)        \
  MetricDesc {                                                \
    NAME, KEY, UNIT, MetricKind::KIND, DOC,                   \
        [](const SimStats& s) { return MetricValue::of(EXPR); } \
  }

[[nodiscard]] std::vector<MetricDesc> build_table() {
  return {
      // -- Time -----------------------------------------------------------------
      RACCD_METRIC("cycles", "cycles", "cycles", kCycles,
                   "end-to-end execution time (paper Fig. 6/9)", s.cycles),
      RACCD_METRIC("time.busy_cycles", "busy_cycles", "cycles", kCycles,
                   "sum of per-core task execution time", s.busy_cycles),
      RACCD_METRIC("time.core_utilization", "core_utilization", "", kRatio,
                   "busy_cycles / (cycles x cores)", s.core_utilization),

      // -- L1 (aggregated over cores) -------------------------------------------
      RACCD_METRIC("fabric.l1_accesses", "l1_accesses", "", kCounter,
                   "L1 demand accesses", s.fabric.l1_accesses),
      RACCD_METRIC("fabric.l1_hits", "l1_hits", "", kCounter, "L1 hits",
                   s.fabric.l1_hits),
      RACCD_METRIC("fabric.l1_misses", "l1_misses", "", kCounter, "L1 misses",
                   s.fabric.l1_misses),
      RACCD_METRIC("fabric.l1_hit_rate", "l1_hit_rate", "", kRatio,
                   "l1_hits / l1_accesses (derived)",
                   s.fabric.l1_accesses == 0
                       ? 0.0
                       : static_cast<double>(s.fabric.l1_hits) /
                             static_cast<double>(s.fabric.l1_accesses)),
      RACCD_METRIC("fabric.l1_evictions", "l1_evictions", "", kCounter,
                   "L1 capacity/conflict evictions", s.fabric.l1_evictions),
      RACCD_METRIC("fabric.l1_wb_coh", "l1_wb_coh", "", kCounter,
                   "coherent dirty writebacks from L1", s.fabric.l1_wb_coh),
      RACCD_METRIC("fabric.l1_wb_nc", "l1_wb_nc", "", kCounter,
                   "non-coherent dirty writebacks from L1", s.fabric.l1_wb_nc),
      RACCD_METRIC("fabric.l1_invals_sharer", "l1_invals_sharer", "", kCounter,
                   "L1 invalidations from GetX/upgrades", s.fabric.l1_invals_sharer),
      RACCD_METRIC("fabric.l1_invals_recall", "l1_invals_recall", "", kCounter,
                   "L1 invalidations from directory/LLC recalls",
                   s.fabric.l1_invals_recall),
      RACCD_METRIC("fabric.l1_flush_nc_lines", "l1_flush_nc_lines", "", kCounter,
                   "NC lines flushed by raccd_invalidate", s.fabric.l1_flush_nc_lines),
      RACCD_METRIC("fabric.l1_flush_nc_wbs", "l1_flush_nc_wbs", "", kCounter,
                   "dirty NC lines written back by raccd_invalidate",
                   s.fabric.l1_flush_nc_wbs),
      RACCD_METRIC("fabric.l1_flush_page_lines", "l1_flush_page_lines", "", kCounter,
                   "lines flushed by PT private->shared recovery",
                   s.fabric.l1_flush_page_lines),
      RACCD_METRIC("fabric.l1_flush_page_wbs", "l1_flush_page_wbs", "", kCounter,
                   "dirty lines written back by PT recovery",
                   s.fabric.l1_flush_page_wbs),

      // -- LLC --------------------------------------------------------------------
      RACCD_METRIC("fabric.llc_lookups", "llc_lookups", "", kCounter,
                   "demand LLC lookups from L1 misses", s.fabric.llc_lookups),
      RACCD_METRIC("fabric.llc_hits", "llc_hits", "", kCounter, "LLC hits",
                   s.fabric.llc_hits),
      RACCD_METRIC("fabric.llc_misses", "llc_misses", "", kCounter, "LLC misses",
                   s.fabric.llc_misses),
      RACCD_METRIC("fabric.llc_hit_rate", "llc_hit_rate", "", kRatio,
                   "llc_hits / llc_lookups (paper Fig. 7b)", s.llc_hit_ratio()),
      RACCD_METRIC("fabric.llc_nc_lookups", "llc_nc_lookups", "", kCounter,
                   "directory-bypassing NC lookups", s.fabric.llc_nc_lookups),
      RACCD_METRIC("fabric.llc_nc_hits", "llc_nc_hits", "", kCounter,
                   "NC lookups that hit", s.fabric.llc_nc_hits),
      RACCD_METRIC("fabric.llc_fills", "llc_fills", "", kCounter, "LLC line fills",
                   s.fabric.llc_fills),
      RACCD_METRIC("fabric.llc_evictions", "llc_evictions", "", kCounter,
                   "LLC evictions", s.fabric.llc_evictions),
      RACCD_METRIC("fabric.llc_inval_by_dir", "llc_inval_by_dir", "", kCounter,
                   "LLC lines dropped by directory entry eviction",
                   s.fabric.llc_inval_by_dir),
      RACCD_METRIC("fabric.llc_wb_mem", "llc_wb_mem", "", kCounter,
                   "dirty LLC lines written back to memory", s.fabric.llc_wb_mem),
      RACCD_METRIC("fabric.llc_touches", "llc_touches", "", kCounter,
                   "every LLC array access (energy basis)", s.fabric.llc_touches),

      // -- Directory --------------------------------------------------------------
      RACCD_METRIC("fabric.dir_accesses", "dir_accesses", "", kCounter,
                   "directory structure reads+updates (paper Fig. 7a)",
                   s.fabric.dir_accesses),
      RACCD_METRIC("fabric.dir_lookups", "dir_lookups", "", kCounter,
                   "directory lookups", s.fabric.dir_lookups),
      RACCD_METRIC("fabric.dir_hits", "dir_hits", "", kCounter, "directory hits",
                   s.fabric.dir_hits),
      RACCD_METRIC("fabric.dir_misses", "dir_misses", "", kCounter, "directory misses",
                   s.fabric.dir_misses),
      RACCD_METRIC("fabric.dir_allocs", "dir_allocs", "", kCounter,
                   "directory entry allocations", s.fabric.dir_allocs),
      RACCD_METRIC("fabric.dir_evictions", "dir_evictions", "", kCounter,
                   "directory entry evictions (with recalls)", s.fabric.dir_evictions),
      RACCD_METRIC("fabric.dir_recall_msgs", "dir_recall_msgs", "", kCounter,
                   "recall messages sent to sharers", s.fabric.dir_recall_msgs),
      RACCD_METRIC("fabric.dir_wb_updates", "dir_wb_updates", "", kCounter,
                   "directory updates from L1 writebacks", s.fabric.dir_wb_updates),
      RACCD_METRIC("fabric.dir_nc_to_coh", "dir_nc_to_coh", "", kCounter,
                   "NC LLC lines re-tracked on coherent access", s.fabric.dir_nc_to_coh),
      RACCD_METRIC("fabric.dir_coh_to_nc", "dir_coh_to_nc", "", kCounter,
                   "directory entries dropped on NC access (paper III-E)",
                   s.fabric.dir_coh_to_nc),

      // -- Transactions -----------------------------------------------------------
      RACCD_METRIC("fabric.coh_reads", "coh_reads", "", kCounter,
                   "coherent read transactions", s.fabric.coh_reads),
      RACCD_METRIC("fabric.coh_writes", "coh_writes", "", kCounter,
                   "coherent write transactions", s.fabric.coh_writes),
      RACCD_METRIC("fabric.upgrades", "upgrades", "", kCounter, "S->M upgrades",
                   s.fabric.upgrades),
      RACCD_METRIC("fabric.nc_reads", "nc_reads", "", kCounter,
                   "non-coherent read transactions", s.fabric.nc_reads),
      RACCD_METRIC("fabric.nc_writes", "nc_writes", "", kCounter,
                   "non-coherent write transactions", s.fabric.nc_writes),
      RACCD_METRIC("fabric.owner_probes", "owner_probes", "", kCounter,
                   "dirty-owner forwarding probes", s.fabric.owner_probes),
      RACCD_METRIC("fabric.dir_reqs.cross_socket", "dir_reqs_cross_socket", "",
                   kCounter, "coherent misses+upgrades crossing a socket link",
                   s.fabric.dir_reqs_cross_socket),
      RACCD_METRIC("fabric.nc_reqs.cross_socket", "nc_reqs_cross_socket", "", kCounter,
                   "NC requests crossing a socket link", s.fabric.nc_reqs_cross_socket),
      RACCD_METRIC("fabric.mem_reads", "mem_reads", "", kCounter, "memory line fetches",
                   s.fabric.mem_reads),
      RACCD_METRIC("fabric.mem_writes", "mem_writes", "", kCounter,
                   "memory line writebacks", s.fabric.mem_writes),
      RACCD_METRIC("fabric.mem_wb_wait_cycles", "mem_wb_wait_cycles", "cycles",
                   kCycles,
                   "writeback delivery: NoC leg to the controller + write-queue wait",
                   s.fabric.mem_wb_wait_cycles),

      // -- DRAM (dram/dram.hpp; zero under the default simple model) --------------
      RACCD_METRIC("dram.row_hits", "dram_row_hits", "", kCounter,
                   "requests served from an open row buffer", s.fabric.dram_row_hits),
      RACCD_METRIC("dram.row_misses", "dram_row_misses", "", kCounter,
                   "requests that activated a closed row", s.fabric.dram_row_misses),
      RACCD_METRIC("dram.row_conflicts", "dram_row_conflicts", "", kCounter,
                   "requests that precharged another open row first",
                   s.fabric.dram_row_conflicts),
      RACCD_METRIC("dram.row_hit_rate", "dram_row_hit_rate", "", kRatio,
                   "row-buffer hits / serviced DRAM requests",
                   s.fabric.dram_row_hit_ratio()),
      RACCD_METRIC("dram.queue_wait_cycles", "dram_queue_wait_cycles", "cycles",
                   kCycles,
                   "read-request wait before DRAM service (queues, write drains, "
                   "bank conflicts, issue order)",
                   s.fabric.dram_queue_wait_cycles),

      // -- NoC --------------------------------------------------------------------
      RACCD_METRIC("noc.messages", "noc_messages", "", kCounter, "NoC messages",
                   s.noc.total_messages()),
      RACCD_METRIC("noc.flits", "noc_flits", "flits", kCounter, "NoC flits injected",
                   s.noc.total_flits()),
      RACCD_METRIC("noc.flit_hops", "noc_flit_hops", "flit-hops", kCounter,
                   "flits x links traversed (paper Fig. 7c)", s.noc.total_flit_hops()),
      RACCD_METRIC("noc.flit_hops.on_socket", "noc_on_socket_flit_hops", "flit-hops",
                   kCounter, "flit-hops on intra-socket links",
                   s.noc.on_socket_flit_hops()),
      RACCD_METRIC("noc.flit_hops.cross_socket", "noc_cross_socket_flit_hops",
                   "flit-hops", kCounter,
                   "flit-hops of messages that crossed a socket link",
                   s.noc.cross_socket.flit_hops),
      RACCD_METRIC("noc.messages.cross_socket", "noc_cross_socket_messages", "",
                   kCounter, "messages that crossed a socket link",
                   s.noc.cross_socket.messages),
      RACCD_METRIC("noc.flits.cross_socket", "noc_cross_socket_flits", "flits",
                   kCounter, "flits of cross-socket messages", s.noc.cross_socket.flits),
      RACCD_METRIC("noc.socket_link_flits", "noc_socket_link_flits", "flits", kCounter,
                   "flits carried over the inter-socket links themselves",
                   s.noc.socket_link_flits),

// Per-message-class traffic (request/data/inval/ack/writeback).
#define RACCD_NOC_CLASS(IDX, CLS)                                              \
  RACCD_METRIC("noc." CLS ".messages", "noc_" CLS "_messages", "", kCounter,   \
               CLS " messages", s.noc.per_class[IDX].messages),                \
      RACCD_METRIC("noc." CLS ".flits", "noc_" CLS "_flits", "flits", kCounter,\
                   CLS " flits", s.noc.per_class[IDX].flits),                  \
      RACCD_METRIC("noc." CLS ".flit_hops", "noc_" CLS "_flit_hops",           \
                   "flit-hops", kCounter, CLS " flit-hops",                    \
                   s.noc.per_class[IDX].flit_hops)
      RACCD_NOC_CLASS(0, "request"),
      RACCD_NOC_CLASS(1, "data"),
      RACCD_NOC_CLASS(2, "inval"),
      RACCD_NOC_CLASS(3, "ack"),
      RACCD_NOC_CLASS(4, "writeback"),
#undef RACCD_NOC_CLASS

      // -- NCRT / TLB / PT classifier ---------------------------------------------
      RACCD_METRIC("ncrt.lookups", "ncrt_lookups", "", kCounter,
                   "NCRT lookups on the L1 miss path", s.ncrt.lookups),
      RACCD_METRIC("ncrt.hits", "ncrt_hits", "", kCounter, "NCRT hits (access goes NC)",
                   s.ncrt.hits),
      RACCD_METRIC("ncrt.inserts", "ncrt_inserts", "", kCounter,
                   "regions inserted by raccd_register", s.ncrt.inserts),
      RACCD_METRIC("ncrt.overflows", "ncrt_overflows", "", kCounter,
                   "regions rejected because the table was full", s.ncrt.overflows),
      RACCD_METRIC("ncrt.clears", "ncrt_clears", "", kCounter,
                   "NCRT clears at task end", s.ncrt.clears),
      RACCD_METRIC("tlb.lookups", "tlb_lookups", "", kCounter, "TLB lookups",
                   s.tlb.lookups),
      RACCD_METRIC("tlb.hits", "tlb_hits", "", kCounter, "TLB hits", s.tlb.hits),
      RACCD_METRIC("tlb.misses", "tlb_misses", "", kCounter, "TLB misses (page walks)",
                   s.tlb.misses),
      RACCD_METRIC("tlb.shootdowns", "tlb_shootdowns", "", kCounter,
                   "entries invalidated by remote shootdown", s.tlb.shootdowns),
      RACCD_METRIC("tlb.evictions", "tlb_evictions", "", kCounter,
                   "capacity-driven LRU evictions", s.tlb.evictions),
      RACCD_METRIC("pt.first_touches", "pt_first_touches", "", kCounter,
                   "pages classified private on first touch", s.pt.first_touches),
      RACCD_METRIC("pt.transitions", "pt_transitions", "", kCounter,
                   "private->shared reclassifications", s.pt.transitions),

      // -- ADR --------------------------------------------------------------------
      RACCD_METRIC("adr.polls", "adr_polls", "", kCounter, "ADR monitor polls",
                   s.adr.polls),
      RACCD_METRIC("adr.grows", "adr_grows", "", kCounter, "directory grow reconfigs",
                   s.adr.grows),
      RACCD_METRIC("adr.shrinks", "adr_shrinks", "", kCounter,
                   "directory shrink reconfigs", s.adr.shrinks),
      RACCD_METRIC("adr.entries_moved", "adr_entries_moved", "", kCounter,
                   "entries rehashed by resizes", s.adr.entries_moved),
      RACCD_METRIC("adr.entries_displaced", "adr_entries_displaced", "", kCounter,
                   "entries recalled by shrinks", s.adr.entries_displaced),
      RACCD_METRIC("adr.blocked_cycles", "adr_blocked_cycles", "cycles", kCycles,
                   "bank-blocked cycles during resizes", s.adr.blocked_cycles),

      // -- Runtime activity -------------------------------------------------------
      RACCD_METRIC("runtime.tasks", "tasks", "", kCounter, "tasks created",
                   s.tasks),
      RACCD_METRIC("runtime.edges", "edges", "", kCounter, "TDG dependence edges",
                   s.edges),
      RACCD_METRIC("runtime.accesses_replayed", "accesses_replayed", "", kCounter,
                   "memory accesses replayed through the timing model",
                   s.accesses_replayed),
      RACCD_METRIC("runtime.create_cycles", "create_cycles", "cycles", kCycles,
                   "task creation + dependence analysis time", s.create_cycles),
      RACCD_METRIC("runtime.schedule_cycles", "schedule_cycles", "cycles", kCycles,
                   "scheduling phase time (paper Fig. 3)", s.schedule_cycles),
      RACCD_METRIC("runtime.wakeup_cycles", "wakeup_cycles", "cycles", kCycles,
                   "wake-up phase time", s.wakeup_cycles),
      RACCD_METRIC("runtime.register_cycles", "register_cycles", "cycles", kCycles,
                   "raccd_register total", s.register_cycles),
      RACCD_METRIC("runtime.invalidate_cycles", "invalidate_cycles", "cycles", kCycles,
                   "raccd_invalidate total (incl. cache walks)", s.invalidate_cycles),
      RACCD_METRIC("runtime.flushed_nc_lines", "flushed_nc_lines", "", kCounter,
                   "NC lines flushed at task ends", s.flushed_nc_lines),
      RACCD_METRIC("runtime.flushed_nc_wbs", "flushed_nc_wbs", "", kCounter,
                   "dirty NC lines written back at task ends", s.flushed_nc_wbs),

      // -- Block classification (paper Fig. 2) ------------------------------------
      RACCD_METRIC("blocks.touched", "blocks_touched", "", kCounter,
                   "distinct cache blocks touched", s.blocks_touched),
      RACCD_METRIC("blocks.noncoherent", "blocks_noncoherent", "", kCounter,
                   "touched blocks never accessed coherently", s.blocks_noncoherent),
      RACCD_METRIC("blocks.nc_fraction", "nc_block_fraction", "", kRatio,
                   "non-coherent fraction of touched blocks (paper Fig. 2)",
                   s.noncoherent_block_fraction),

      // -- Directory occupancy (paper Fig. 8) -------------------------------------
      RACCD_METRIC("dir.avg_occupancy", "avg_dir_occupancy", "", kRatio,
                   "directory occupancy vs configured capacity (time-averaged "
                   "end-of-run; instantaneous in series samples)",
                   s.avg_dir_occupancy),
      RACCD_METRIC("dir.avg_active_frac", "avg_dir_active_frac", "", kRatio,
                   "powered fraction of the directory under ADR",
                   s.avg_dir_active_frac),

      // -- Energy (paper Fig. 7d, 10) ---------------------------------------------
      RACCD_METRIC("energy.dir_dyn_pj", "dir_dyn_energy_pj", "pJ", kEnergy,
                   "directory dynamic energy (the headline, Fig. 7d/10)",
                   s.fabric.e_dir_pj),
      RACCD_METRIC("energy.llc_dyn_pj", "llc_dyn_energy_pj", "pJ", kEnergy,
                   "LLC dynamic energy", s.fabric.e_llc_pj),
      RACCD_METRIC("energy.noc_dyn_pj", "noc_dyn_energy_pj", "pJ", kEnergy,
                   "NoC dynamic energy", s.fabric.e_noc_pj),
      RACCD_METRIC("energy.mem_dyn_pj", "mem_dyn_energy_pj", "pJ", kEnergy,
                   "memory dynamic energy", s.fabric.e_mem_pj),
      RACCD_METRIC("energy.mem_act_pj", "mem_act_energy_pj", "pJ", kEnergy,
                   "DRAM activate energy (kDdr per-op split of the memory total)",
                   s.fabric.e_mem_act_pj),
      RACCD_METRIC("energy.mem_rd_pj", "mem_rd_energy_pj", "pJ", kEnergy,
                   "DRAM column-read energy", s.fabric.e_mem_rd_pj),
      RACCD_METRIC("energy.mem_wr_pj", "mem_wr_energy_pj", "pJ", kEnergy,
                   "DRAM column-write energy", s.fabric.e_mem_wr_pj),
      RACCD_METRIC("energy.mem_pre_pj", "mem_pre_energy_pj", "pJ", kEnergy,
                   "DRAM precharge energy", s.fabric.e_mem_pre_pj),
      RACCD_METRIC("energy.l1_dyn_pj", "l1_dyn_energy_pj", "pJ", kEnergy,
                   "L1 dynamic energy", s.fabric.e_l1_pj),
      RACCD_METRIC("energy.dir_leak_pj", "dir_leak_energy_pj", "pJ", kEnergy,
                   "directory leakage over powered entry-cycles",
                   s.dir_leak_energy_pj),

      // -- Sampled simulation (SamplingConfig; zero / scale 1 for detailed runs) --
      RACCD_METRIC("sampling.windows", "sampling_windows", "", kCounter,
                   "measured sampling windows with at least one access",
                   s.sampling.windows),
      RACCD_METRIC("sampling.measured_tasks", "sampling_measured_tasks", "", kCounter,
                   "tasks replayed with detailed timing into the measured bucket",
                   s.sampling.measured_tasks),
      RACCD_METRIC("sampling.warmup_tasks", "sampling_warmup_tasks", "", kCounter,
                   "detailed-warmup tasks (timed but not measured)",
                   s.sampling.warmup_tasks),
      RACCD_METRIC("sampling.ffwd_tasks", "sampling_ffwd_tasks", "", kCounter,
                   "tasks fast-forwarded functionally", s.sampling.ffwd_tasks),
      RACCD_METRIC("sampling.measured_accesses", "sampling_measured_accesses", "",
                   kCounter, "accesses replayed in measured windows",
                   s.sampling.measured_accesses),
      RACCD_METRIC("sampling.ffwd_accesses", "sampling_ffwd_accesses", "", kCounter,
                   "accesses replayed functionally (fast-forward)",
                   s.sampling.ffwd_accesses),
      RACCD_METRIC("sampling.scale", "sampling_scale", "", kRatio,
                   "extrapolation factor: total / measured accesses",
                   s.sampling.scale),
      // 95% CI half-widths, keyed `<base key>_ci95` so reports and
      // raccd-report diff pair them with the metric they price.
      RACCD_METRIC("sampling.cycles_ci95", "cycles_ci95", "cycles", kRatio,
                   "95% CI half-width on extrapolated cycles",
                   s.sampling.cycles_ci95),
      RACCD_METRIC("sampling.dir_accesses_ci95", "dir_accesses_ci95", "", kRatio,
                   "95% CI half-width on extrapolated directory accesses",
                   s.sampling.dir_accesses_ci95),
      RACCD_METRIC("sampling.llc_hits_ci95", "llc_hits_ci95", "", kRatio,
                   "95% CI half-width on extrapolated LLC hits",
                   s.sampling.llc_hits_ci95),
      RACCD_METRIC("sampling.noc_flits_ci95", "noc_flits_ci95", "flits", kRatio,
                   "95% CI half-width on extrapolated NoC flits",
                   s.sampling.noc_flits_ci95),
      RACCD_METRIC("sampling.noc_flit_hops_ci95", "noc_flit_hops_ci95", "flit-hops",
                   kRatio, "95% CI half-width on extrapolated NoC flit-hops",
                   s.sampling.noc_flit_hops_ci95),
      RACCD_METRIC("sampling.dram_row_hits_ci95", "dram_row_hits_ci95", "", kRatio,
                   "95% CI half-width on extrapolated DRAM row hits",
                   s.sampling.dram_row_hits_ci95),
      RACCD_METRIC("sampling.dram_row_hit_rate_ci95", "dram_row_hit_rate_ci95", "",
                   kRatio, "95% CI half-width on the DRAM row-hit rate",
                   s.sampling.dram_row_hit_rate_ci95),
      RACCD_METRIC("sampling.dir_occupancy_ci95", "avg_dir_occupancy_ci95", "",
                   kRatio, "95% CI half-width on average directory occupancy",
                   s.sampling.dir_occupancy_ci95),

      // -- Open-loop service runs (ServiceStats; zero for batch runs) -------------
      RACCD_METRIC("service.requests", "service_requests", "", kCounter,
                   "completed service requests (open-loop runs)",
                   s.service.requests),
// Each latency component reports the distribution summary the histogram
// produced: mean and max exact, percentiles at the bucket-grid resolution.
#define RACCD_SERVICE_DIST(NAME, KEY, FIELD, WHAT)                              \
  RACCD_METRIC("service." NAME ".mean", "service_" KEY "_mean", "cycles",       \
               kDistribution, WHAT " latency, mean", s.service.FIELD.mean),     \
      RACCD_METRIC("service." NAME ".p50", "service_" KEY "_p50", "cycles",     \
                   kDistribution, WHAT " latency, median", s.service.FIELD.p50),\
      RACCD_METRIC("service." NAME ".p95", "service_" KEY "_p95", "cycles",     \
                   kDistribution, WHAT " latency, 95th percentile",             \
                   s.service.FIELD.p95),                                        \
      RACCD_METRIC("service." NAME ".p99", "service_" KEY "_p99", "cycles",     \
                   kDistribution, WHAT " latency, 99th percentile",             \
                   s.service.FIELD.p99),                                        \
      RACCD_METRIC("service." NAME ".max", "service_" KEY "_max", "cycles",     \
                   kDistribution, WHAT " latency, maximum", s.service.FIELD.max)
      RACCD_SERVICE_DIST("queue", "queue", queueing,
                         "request queueing (release to first task start)"),
      RACCD_SERVICE_DIST("svc", "svc", service,
                         "request service (first task start to last task end)"),
      RACCD_SERVICE_DIST("e2e", "e2e", e2e,
                         "request end-to-end (release to last task end)"),
#undef RACCD_SERVICE_DIST
  };
}

#undef RACCD_METRIC

constexpr const char* kBenchKeys[] = {
    // The results/BENCH_grid.json payload, in its historical field order.
    "cycles",
    "dir_accesses",
    "llc_hit_rate",
    "noc_flit_hops",
    "noc_on_socket_flit_hops",
    "noc_cross_socket_flit_hops",
    "dir_reqs_cross_socket",
    "dir_dyn_energy_pj",
    "llc_dyn_energy_pj",
    "noc_dyn_energy_pj",
    "dir_leak_energy_pj",
    "nc_block_fraction",
    "avg_dir_occupancy",
    "tasks",
};

constexpr const char* kCsvKeys[] = {
    "cycles",
    "dir_accesses",
    "llc_hit_rate",
    "noc_flit_hops",
    "noc_cross_socket_flit_hops",
    "dir_dyn_energy_pj",
    "nc_block_fraction",
    "avg_dir_occupancy",
    "tasks",
};

constexpr const char* kSeriesDefaults[] = {
    "dir.avg_occupancy", "dir.avg_active_frac", "fabric.dir_accesses",
    "fabric.llc_hit_rate", "noc.flit_hops",
};

}  // namespace

std::string MetricDesc::format(const SimStats& s) const {
  const MetricValue v = value(s);
  switch (kind) {
    case MetricKind::kCounter:
    case MetricKind::kCycles:
      return strprintf("%llu", static_cast<unsigned long long>(v.u));
    case MetricKind::kRatio:
      return strprintf("%.6f", v.d);
    case MetricKind::kEnergy:
      return strprintf("%.3f", v.d);
    case MetricKind::kDistribution:
      return strprintf("%.1f", v.d);
  }
  return "?";
}

MetricSchema::MetricSchema() : metrics_(build_table()) {
  for (const MetricDesc& m : metrics_) {
    const auto [it, inserted] = index_.try_emplace(m.name, &m);
    RACCD_ASSERT(inserted, "duplicate metric name in schema");
    if (std::string_view(m.key) != m.name) {
      const auto [kit, kinserted] = index_.try_emplace(m.key, &m);
      RACCD_ASSERT(kinserted, "metric key collides with another name/key");
    }
  }
}

const MetricSchema& MetricSchema::instance() {
  static const MetricSchema schema;
  return schema;
}

const MetricDesc* MetricSchema::find(std::string_view name_or_key) const {
  const auto it = index_.find(name_or_key);
  return it == index_.end() ? nullptr : it->second;
}

const MetricDesc& MetricSchema::get(std::string_view name_or_key) const {
  const MetricDesc* m = find(name_or_key);
  if (m == nullptr) {
    std::fprintf(stderr, "unknown metric '%.*s'; known metrics:\n",
                 static_cast<int>(name_or_key.size()), name_or_key.data());
    for (const MetricDesc& d : metrics_) std::fprintf(stderr, "  %s\n", d.name);
    RACCD_ASSERT(false, "metric name not present in schema");
  }
  return *m;
}

std::vector<const MetricDesc*> MetricSchema::select(
    std::span<const std::string> names) const {
  std::vector<const MetricDesc*> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(&get(n));
  return out;
}

std::vector<const MetricDesc*> MetricSchema::select(
    std::initializer_list<const char*> names) const {
  std::vector<const MetricDesc*> out;
  out.reserve(names.size());
  for (const char* n : names) out.push_back(&get(n));
  return out;
}

std::string MetricSchema::parse_selection(std::string_view csv,
                                          std::vector<const MetricDesc*>& out) const {
  out.clear();
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    const std::string_view name = csv.substr(pos, comma - pos);
    if (!name.empty()) {
      const MetricDesc* m = find(name);
      if (m == nullptr) {
        return strprintf("unknown metric '%.*s' (see `raccd-report metrics`)",
                         static_cast<int>(name.size()), name.data());
      }
      out.push_back(m);
    }
    pos = comma + 1;
  }
  if (out.empty()) return "empty metric selection";
  return "";
}

std::string MetricSchema::describe(bool markdown) const {
  std::size_t name_w = 0, key_w = 0, kind_w = 0, unit_w = 0;
  for (const MetricDesc& m : metrics_) {
    name_w = std::max(name_w, std::string_view(m.name).size());
    key_w = std::max(key_w, std::string_view(m.key).size());
    kind_w = std::max(kind_w, std::string_view(to_string(m.kind)).size());
    unit_w = std::max(unit_w, std::string_view(m.unit).size());
  }
  std::string out;
  if (markdown) {
    out += "| metric | key | kind | unit | description |\n";
    out += "|---|---|---|---|---|\n";
    for (const MetricDesc& m : metrics_) {
      out += strprintf("| `%s` | `%s` | %s | %s | %s |\n", m.name, m.key,
                       to_string(m.kind), m.unit, m.doc);
    }
    return out;
  }
  out += strprintf("%-*s  %-*s  %-*s  %-*s  %s\n", static_cast<int>(name_w), "metric",
                   static_cast<int>(key_w), "key", static_cast<int>(kind_w), "kind",
                   static_cast<int>(unit_w), "unit", "description");
  for (const MetricDesc& m : metrics_) {
    out += strprintf("%-*s  %-*s  %-*s  %-*s  %s\n", static_cast<int>(name_w), m.name,
                     static_cast<int>(key_w), m.key, static_cast<int>(kind_w),
                     to_string(m.kind), static_cast<int>(unit_w), m.unit, m.doc);
  }
  return out;
}

std::span<const char* const> bench_metric_keys() noexcept { return kBenchKeys; }
std::span<const char* const> csv_metric_keys() noexcept { return kCsvKeys; }
std::span<const char* const> default_series_metrics() noexcept { return kSeriesDefaults; }

}  // namespace raccd
