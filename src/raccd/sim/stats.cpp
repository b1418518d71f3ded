#include "raccd/sim/stats.hpp"

#include "raccd/common/format.hpp"
#include "raccd/common/math.hpp"

namespace raccd {

std::string SimStats::summary() const {
  std::string out;
  out += strprintf("mode=%s dir=1:%u adr=%d\n", to_string(mode), dir_ratio,
                   adr_enabled ? 1 : 0);
  out += strprintf("  cycles=%s tasks=%llu edges=%llu util=%.1f%%\n",
                   format_count(cycles).c_str(),
                   static_cast<unsigned long long>(tasks),
                   static_cast<unsigned long long>(edges), 100.0 * core_utilization);
  out += strprintf("  L1: %llu accesses, %.1f%% hit | LLC: %llu lookups, %.1f%% hit\n",
                   static_cast<unsigned long long>(fabric.l1_accesses),
                   percent(static_cast<double>(fabric.l1_hits),
                           static_cast<double>(fabric.l1_accesses)),
                   static_cast<unsigned long long>(fabric.llc_lookups),
                   100.0 * fabric.llc_hit_ratio());
  out += strprintf("  dir: %llu accesses, occupancy %.1f%%, active %.1f%%\n",
                   static_cast<unsigned long long>(fabric.dir_accesses),
                   100.0 * avg_dir_occupancy, 100.0 * avg_dir_active_frac);
  out += strprintf("  noc: %llu flit-hops | mem: %llu reads, %llu writes\n",
                   static_cast<unsigned long long>(noc.total_flit_hops()),
                   static_cast<unsigned long long>(fabric.mem_reads),
                   static_cast<unsigned long long>(fabric.mem_writes));
  if (fabric.dram_row_hits + fabric.dram_row_misses + fabric.dram_row_conflicts > 0) {
    out += strprintf(
        "  dram: row hit %.1f%% (%llu hit / %llu miss / %llu conflict), "
        "read wait %s cycles, wb wait %s cycles\n",
        100.0 * fabric.dram_row_hit_ratio(),
        static_cast<unsigned long long>(fabric.dram_row_hits),
        static_cast<unsigned long long>(fabric.dram_row_misses),
        static_cast<unsigned long long>(fabric.dram_row_conflicts),
        format_count(fabric.dram_queue_wait_cycles).c_str(),
        format_count(fabric.mem_wb_wait_cycles).c_str());
  }
  if (noc.cross_socket.messages > 0) {
    out += strprintf(
        "  cross-socket: %llu flit-hops (%.1f%% of traffic), %llu dir reqs, "
        "%llu nc reqs, %llu link flits\n",
        static_cast<unsigned long long>(noc.cross_socket.flit_hops),
        percent(static_cast<double>(noc.cross_socket.flit_hops),
                static_cast<double>(noc.total_flit_hops())),
        static_cast<unsigned long long>(fabric.dir_reqs_cross_socket),
        static_cast<unsigned long long>(fabric.nc_reqs_cross_socket),
        static_cast<unsigned long long>(noc.socket_link_flits));
  }
  out += strprintf("  non-coherent blocks: %.1f%% (%llu / %llu)\n",
                   100.0 * noncoherent_block_fraction,
                   static_cast<unsigned long long>(blocks_noncoherent),
                   static_cast<unsigned long long>(blocks_touched));
  out += strprintf("  energy: dir %.1f nJ, llc %.1f nJ, noc %.1f nJ\n",
                   fabric.e_dir_pj / 1e3, fabric.e_llc_pj / 1e3, fabric.e_noc_pj / 1e3);
  return out;
}

}  // namespace raccd
