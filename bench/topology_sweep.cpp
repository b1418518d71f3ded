// Topology sweep: how does runtime-assisted coherence deactivation pay off
// as coherence traffic gets more expensive to route?
//
// Sweeps >= 2 workloads across flat / 2-socket / 4-socket machines under
// FullCoh, PT and RaCCD (first-touch page placement, so a task's dependence
// pages home on its scheduler-chosen socket) and reports the on-socket vs
// cross-socket traffic split. The paper's core claim predicts RaCCD's
// directory bypass converts its non-coherent fraction into *cross-socket*
// directory-transaction savings as the socket count grows — the final
// section checks that directly against FullCoh.
//
// Results merge into results/BENCH_grid.json and results/topology_sweep.csv.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace raccd;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::vector<std::string> workloads{"jacobi", "synthetic"};
  const std::vector<std::string> topologies{"flat", "numa2", "numa4"};

  const std::vector<RunSpec> specs = Grid()
                                         .workloads(workloads)
                                         .set_params(opts.params)
                                         .size(opts.size)
                                         .modes(kAllModes)
                                         .alloc(AllocPolicy::kFirstTouch)
                                         .topologies(topologies)
                                         .paper_machine(opts.paper_machine)
                                         .specs();
  std::fprintf(stderr,
               "topology sweep: %zu simulations (%zu workloads x %zu systems x "
               "%zu topologies), size=%s — cached results reused\n",
               specs.size(), workloads.size(), kAllModes.size(), topologies.size(),
               to_string(opts.size));
  const ResultSet rs = bench::run_logged(specs, opts);

  // Grid nesting (grid.hpp): workloads > modes > topologies (innermost).
  const auto at = [&](std::size_t w, std::size_t m, std::size_t t) -> const SimStats& {
    return rs[(w * kAllModes.size() + m) * topologies.size() + t];
  };

  std::printf("Topology sweep — on-socket vs cross-socket traffic (first-touch pages)\n");
  TextTable table({"workload", "topology", "system", "cycles", "flit-hops",
                   "cross-socket", "cross %", "dir reqs x-socket", "noc energy nJ"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    if (w != 0) table.add_separator();
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      for (std::size_t m = 0; m < kAllModes.size(); ++m) {
        const SimStats& s = at(w, m, t);
        const double cross_pct =
            s.noc.total_flit_hops() == 0
                ? 0.0
                : 100.0 * static_cast<double>(s.noc.cross_socket.flit_hops) /
                      static_cast<double>(s.noc.total_flit_hops());
        table.add_row({workloads[w], topologies[t], to_string(s.mode),
                       format_count(s.cycles), format_count(s.noc.total_flit_hops()),
                       format_count(s.noc.cross_socket.flit_hops),
                       strprintf("%.1f", cross_pct),
                       format_count(s.fabric.dir_reqs_cross_socket),
                       strprintf("%.1f", s.fabric.e_noc_pj / 1e3)});
      }
    }
  }
  table.print();
  if (table.write_csv("results/topology_sweep.csv")) {
    std::printf("(csv written to results/topology_sweep.csv)\n");
  }

  // The claim under test: RaCCD's directory bypass removes cross-socket
  // directory transactions (and their energy) relative to FullCoh.
  std::printf("\nRaCCD vs FullCoh on multi-socket machines:\n");
  bool any_reduction = false;
  const std::size_t raccd = static_cast<std::size_t>(CohMode::kRaCCD);
  const std::size_t full = static_cast<std::size_t>(CohMode::kFullCoh);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t t = 1; t < topologies.size(); ++t) {  // skip flat
      const SimStats& r = at(w, raccd, t);
      const SimStats& f = at(w, full, t);
      const bool reduced = r.fabric.dir_reqs_cross_socket < f.fabric.dir_reqs_cross_socket;
      any_reduction = any_reduction || reduced;
      std::printf(
          "  %-10s %-6s cross-socket dir reqs %8llu -> %8llu (%s), "
          "noc energy %8.1f -> %8.1f nJ\n",
          workloads[w].c_str(), topologies[t].c_str(),
          static_cast<unsigned long long>(f.fabric.dir_reqs_cross_socket),
          static_cast<unsigned long long>(r.fabric.dir_reqs_cross_socket),
          reduced ? "reduced" : "NOT reduced", f.fabric.e_noc_pj / 1e3,
          r.fabric.e_noc_pj / 1e3);
    }
  }
  std::printf("%s\n", any_reduction
                          ? "RESULT: RaCCD reduces cross-socket directory traffic."
                          : "RESULT: no cross-socket directory reduction observed!");
  return any_reduction ? 0 : 1;
}
