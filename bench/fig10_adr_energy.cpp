// Paper Fig. 10: dynamic energy consumed in the directory with ADR —
// RaCCD+ADR vs FullCoh/PT/RaCCD 1:1, normalized to FullCoh 1:1.
//
// Paper reference points: RaCCD+ADR cuts directory dynamic energy by 50% vs
// RaCCD 1:1 and 72% vs PT 1:1 (13% on JPEG up to 78% on CG); the abstract's
// headline is 86% saved vs the FullCoh baseline.
#include <cstdio>

#include "bench_common.hpp"

using namespace raccd;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const auto& apps = paper_app_names();
  Grid base = Grid()
                  .paper_apps()
                  .set_params(opts.params)
                  .size(opts.size)
                  .paper_machine(opts.paper_machine);
  std::vector<RunSpec> specs = Grid(base).modes(kAllModes).specs();
  const std::vector<RunSpec> adr_specs =
      Grid(base).mode(CohMode::kRaCCD).adr(true).specs();
  specs.insert(specs.end(), adr_specs.begin(), adr_specs.end());
  const ResultSet rs = bench::run_logged(std::move(specs), opts);
  const auto variant = [&rs](const std::string& app, int v) -> const SimStats& {
    const CohMode mode = v == 0   ? CohMode::kFullCoh
                         : v == 1 ? CohMode::kPT
                                  : CohMode::kRaCCD;
    return rs.at(app, mode, 1, /*adr=*/v == 3);
  };

  std::printf("Fig. 10 — Normalized directory dynamic energy with ADR "
              "(FullCoh 1:1 = 1.0)\n");
  TextTable table({"app", "FullCoh", "PT", "RaCCD", "RaCCD+ADR", "powered %"});
  std::vector<double> sums(4, 0.0);
  double save_vs_raccd = 0.0;
  unsigned save_samples = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double base = variant(apps[a], 0).fabric.e_dir_pj;
    std::vector<std::string> row{apps[a]};
    for (int v = 0; v < 4; ++v) {
      const double norm = variant(apps[a], v).fabric.e_dir_pj / base;
      sums[v] += norm;
      row.push_back(strprintf("%.3f", norm));
    }
    // Fully-annotated apps can have zero directory energy under RaCCD;
    // the relative ADR saving is only defined where the base is nonzero.
    if (variant(apps[a], 2).fabric.e_dir_pj > 0.0) {
      save_vs_raccd += 1.0 - variant(apps[a], 3).fabric.e_dir_pj /
                                 variant(apps[a], 2).fabric.e_dir_pj;
      ++save_samples;
    }
    row.push_back(strprintf(
        "%.1f", 100.0 * metric_value(variant(apps[a], 3), "dir.avg_active_frac")));
    table.add_row(std::move(row));
  }
  table.add_separator();
  table.add_row({"AVG", strprintf("%.3f", sums[0] / apps.size()),
                 strprintf("%.3f", sums[1] / apps.size()),
                 strprintf("%.3f", sums[2] / apps.size()),
                 strprintf("%.3f", sums[3] / apps.size()), ""});
  table.print();
  table.write_csv("results/fig10_adr_energy.csv");
  std::printf("\nRaCCD+ADR saves %.1f%% directory dynamic energy vs RaCCD 1:1 "
              "(paper: 50%%; over the %u apps with nonzero RaCCD directory "
              "energy); vs FullCoh 1:1: %.1f%% (abstract: 86%%)\n",
              save_samples > 0 ? 100.0 * save_vs_raccd / save_samples : 0.0,
              save_samples,
              100.0 * (1.0 - (sums[3] / apps.size())));
  return 0;
}
