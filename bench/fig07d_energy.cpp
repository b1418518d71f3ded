// Paper Fig. 7d: dynamic energy consumed in the directory by directory size,
// normalized to the FullCoh 1:1 configuration of each benchmark.
//
// Paper reference points: RaCCD consumes 71% less than FullCoh at 1:1 and
// 80% less at 1:256; it beats PT by >=38% everywhere except JPEG. Shrinking
// the directory always reduces energy per access. The paper also reports
// RaCCD@1:256 saving 35% NoC and 19% LLC dynamic energy vs FullCoh@1:256 —
// printed below the table.
#include "bench_common.hpp"

using namespace raccd;
using namespace raccd::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const PaperGrid g = run_grid(opts);
  print_figure(
      g, "Fig. 7d — Directory dynamic energy (normalized to FullCoh 1:1)",
      "normalized directory dynamic energy",
      [](const SimStats& s, const SimStats& base) {
        return metric_value(s, "energy.dir_dyn_pj") /
               metric_value(base, "energy.dir_dyn_pj");
      },
      "results/fig07d_energy.csv");

  // Companion numbers: NoC and LLC dynamic-energy savings at 1:256.
  double noc_save = 0.0, llc_save = 0.0;
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    const SimStats& full = g.at(a, CohMode::kFullCoh, 256);
    const SimStats& raccd = g.at(a, CohMode::kRaCCD, 256);
    noc_save += 1.0 - raccd.fabric.e_noc_pj / full.fabric.e_noc_pj;
    llc_save += 1.0 - raccd.fabric.e_llc_pj / full.fabric.e_llc_pj;
  }
  noc_save = 100.0 * noc_save / static_cast<double>(g.apps.size());
  llc_save = 100.0 * llc_save / static_cast<double>(g.apps.size());
  std::printf("RaCCD vs FullCoh at 1:256 — NoC dynamic energy saved: %.1f%% "
              "(paper 35%%), LLC: %.1f%% (paper 19%%)\n",
              noc_save, llc_save);
  std::printf("paper: RaCCD -71%% vs FullCoh @1:1, -80%% @1:256\n");

  // Memory-side energy with its DRAM per-op split (activate / read / write /
  // precharge; all zero under the default --dram=simple flat model, where
  // the memory total is the flat per-access energy).
  std::printf("\nMemory dynamic energy at 1:1 (act/rd/wr/pre split, --dram=%s):\n",
              opts.dram.c_str());
  for (const CohMode mode : kAllBackends) {
    double mem = 0.0, act = 0.0, rd = 0.0, wr = 0.0, pre = 0.0;
    for (std::size_t a = 0; a < g.apps.size(); ++a) {
      const SimStats& s = g.at(a, mode, 1);
      mem += metric_value(s, "energy.mem_dyn_pj");
      act += metric_value(s, "energy.mem_act_pj");
      rd += metric_value(s, "energy.mem_rd_pj");
      wr += metric_value(s, "energy.mem_wr_pj");
      pre += metric_value(s, "energy.mem_pre_pj");
    }
    std::printf("  %-7s total %10.1f nJ = act %10.1f + rd %10.1f + wr %10.1f "
                "+ pre %10.1f nJ\n",
                to_string(mode), mem / 1e3, act / 1e3, rd / 1e3, wr / 1e3, pre / 1e3);
  }
  return 0;
}
