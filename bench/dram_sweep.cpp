// DRAM sweep: where does RaCCD's directory/memory trade collide with the
// memory system?
//
// RaCCD buys its directory savings with extra memory-side traffic — NC
// writebacks bypass the directory and land on DRAM (paper §III-C.3). Under
// the flat-latency memory model that trade is free; this sweep runs >= 2
// workloads under FullCoh/PT/RaCCD/WbNC against the detailed channel/bank/
// row-buffer model (dram/dram.hpp) across page policies and channel counts,
// and reports row-buffer locality, read queue waits and writeback queue
// pressure per system.
//
// Results merge into results/BENCH_grid.json and results/dram_sweep.csv.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace raccd;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::parse(argc, argv);
  // The third workload overflows the LLC (per-lane footprint > LLC share),
  // so dirty capacity evictions stream writebacks at DRAM and the write
  // queue actually fills — the regime where the coherence systems' memory
  // traffic differs most.
  const std::vector<std::string> workloads{"jacobi", "synthetic",
                                           "synthetic:footprint_kb=1024"};
  const std::vector<std::string> drams{"ddr-open", "ddr-closed", "ddr-open-ch4",
                                       "ddr-closed-ch4"};

  const std::vector<RunSpec> specs = Grid()
                                         .workloads(workloads)
                                         .set_params(opts.params)
                                         .size(opts.size)
                                         .modes(kAllBackends)
                                         .topology(opts.topo)
                                         .drams(drams)
                                         .paper_machine(opts.paper_machine)
                                         .specs();
  std::fprintf(stderr,
               "dram sweep: %zu simulations (%zu workloads x %zu systems x "
               "%zu DRAM configs), size=%s — cached results reused\n",
               specs.size(), workloads.size(), kAllBackends.size(), drams.size(),
               to_string(opts.size));
  const ResultSet rs = bench::run_logged(specs, opts);

  // Grid nesting (grid.hpp): workloads > modes > drams (innermost).
  const auto at = [&](std::size_t w, std::size_t m, std::size_t d) -> const SimStats& {
    return rs[(w * kAllBackends.size() + m) * drams.size() + d];
  };

  std::printf("DRAM sweep — row-buffer locality and queueing by coherence system\n");
  TextTable table({"workload", "dram", "system", "cycles", "mem reads", "mem writes",
                   "row hit %", "rd queue wait", "wb wait", "mem energy nJ"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    if (w != 0) table.add_separator();
    for (std::size_t d = 0; d < drams.size(); ++d) {
      for (std::size_t m = 0; m < kAllBackends.size(); ++m) {
        const SimStats& s = at(w, m, d);
        table.add_row({workloads[w], drams[d], to_string(s.mode),
                       format_count(s.cycles), format_count(s.fabric.mem_reads),
                       format_count(s.fabric.mem_writes),
                       strprintf("%.1f", 100.0 * metric_value(s, "dram.row_hit_rate")),
                       format_count(s.fabric.dram_queue_wait_cycles),
                       format_count(s.fabric.mem_wb_wait_cycles),
                       strprintf("%.1f", s.fabric.e_mem_pj / 1e3)});
      }
    }
  }
  table.print();
  if (table.write_csv("results/dram_sweep.csv")) {
    std::printf("(csv written to results/dram_sweep.csv)\n");
  }

  // The claims under test. (1) Page policy is load-bearing: the open-page
  // row-buffer hit rate beats closed-page (which cannot row-hit at all) on
  // every workload x system. (2) The coherence system changes what DRAM
  // sees: FullCoh and RaCCD differ measurably in row-buffer locality or
  // queueing on the same workload and DRAM config.
  bool policy_split = true;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t m = 0; m < kAllBackends.size(); ++m) {
      const SimStats& open = at(w, m, 0);
      const SimStats& closed = at(w, m, 1);
      policy_split = policy_split && open.fabric.dram_row_hits > 0 &&
                     closed.fabric.dram_row_hits == 0;
    }
  }
  std::printf("\nopen vs closed page: %s\n",
              policy_split ? "open-page row hits present on every system, "
                             "closed-page none (as constructed)"
                           : "UNEXPECTED: open/closed row-hit split violated!");

  bool mode_split = false;
  // Derive axis positions from the driving list (not enum values), so a
  // reordered kAllBackends cannot silently mislabel the gate's rows.
  const auto mode_idx = [](CohMode m) {
    return static_cast<std::size_t>(
        std::find(kAllBackends.begin(), kAllBackends.end(), m) - kAllBackends.begin());
  };
  const std::size_t full = mode_idx(CohMode::kFullCoh);
  const std::size_t raccd = mode_idx(CohMode::kRaCCD);
  std::printf("FullCoh vs RaCCD at the memory system (open page):\n");
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const SimStats& f = at(w, full, 0);
    const SimStats& r = at(w, raccd, 0);
    const double fh = f.fabric.dram_row_hit_ratio();
    const double rh = r.fabric.dram_row_hit_ratio();
    const bool differs = fh != rh || f.fabric.dram_queue_wait_cycles !=
                                         r.fabric.dram_queue_wait_cycles;
    mode_split = mode_split || differs;
    std::printf("  %-10s row hit %5.1f%% -> %5.1f%%, rd queue wait %8llu -> %8llu, "
                "wb wait %8llu -> %8llu (%s)\n",
                workloads[w].c_str(), 100.0 * fh, 100.0 * rh,
                static_cast<unsigned long long>(f.fabric.dram_queue_wait_cycles),
                static_cast<unsigned long long>(r.fabric.dram_queue_wait_cycles),
                static_cast<unsigned long long>(f.fabric.mem_wb_wait_cycles),
                static_cast<unsigned long long>(r.fabric.mem_wb_wait_cycles),
                differs ? "differs" : "identical");
  }
  std::printf("%s\n", mode_split && policy_split
                          ? "RESULT: coherence system and page policy both shape "
                            "the memory system."
                          : "RESULT: DRAM metrics failed to separate the systems!");
  return mode_split && policy_split ? 0 : 1;
}
