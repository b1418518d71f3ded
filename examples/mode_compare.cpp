// Run workloads once under all four coherence backends — FullCoh, PT, RaCCD,
// and the WbNC software-coherence baseline — at the 1:1 directory and print
// a side-by-side comparison: a one-screen tour of what the library measures.
//
// By default the nine paper benchmarks run; pass registry references to
// compare anything else, e.g.
//   mode_compare 'synthetic:shape=pipeline,width=32' tracereplay jacobi
// The sweep fans out over the work-stealing executor (--jobs=N / -jN,
// default hardware concurrency; results are byte-identical to -j1).
// Results also merge into results/BENCH_grid.json (machine-readable).
#include <cstdio>
#include <cstring>

#include "raccd/apps/registry.hpp"
#include "raccd/common/format.hpp"
#include "raccd/harness/grid.hpp"
#include "raccd/harness/table.hpp"
#include "raccd/metrics/metric_schema.hpp"

using namespace raccd;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  std::vector<std::string> refs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--set") == 0) {  // its value is not a workload
      ++i;
      continue;
    }
    if (argv[i][0] != '-') refs.emplace_back(argv[i]);
  }
  if (refs.empty()) refs = paper_app_names();

  const ResultSet rs = Grid()
                           .workloads(refs)
                           .set_params(opts.params)
                           .size(SizeClass::kTiny)  // quick tour by default
                           .modes(kAllBackends)
                           .topology(opts.topo)  // --topology=flat|cmesh|numaS[xC]
                           .dram(opts.dram)      // --dram=simple|ddr[-...]
                           .paper_machine(opts.paper_machine)
                           .run(opts.run);
  if (!rs.append_bench_json("results/BENCH_grid.json")) {
    std::fprintf(stderr, "warning: could not update results/BENCH_grid.json\n");
  }

  TextTable table({"workload", "system", "cycles", "NC blocks %", "dir accesses",
                   "dir occupancy %"});
  std::size_t i = 0;
  for (const auto& ref : refs) {
    if (i != 0) table.add_separator();
    for (std::size_t m = 0; m < kAllBackends.size(); ++m) {
      const SimStats& s = rs[i++];
      // Columns select what they plot by schema name (metrics/metric_schema.hpp).
      table.add_row({ref, to_string(s.mode), format_count(s.cycles),
                     strprintf("%.1f", 100.0 * metric_value(s, "blocks.nc_fraction")),
                     format_count(s.fabric.dir_accesses),
                     strprintf("%.1f", 100.0 * metric_value(s, "dir.avg_occupancy"))});
    }
  }
  table.print();
  std::puts("\nAll runs functionally verified (run_one aborts on corruption).");
  std::puts("Machine-readable results merged into results/BENCH_grid.json.");
  return 0;
}
