// Cross-mode behavioural tests: the paper's qualitative claims must hold on
// small workloads — RaCCD ≤ PT ≤ FullCoh in directory pressure, occupancy
// ordering (Fig. 8), FullCoh degradation under directory reduction (Fig. 6),
// and RaCCD's robustness to it.
#include <gtest/gtest.h>

#include "raccd/apps/app.hpp"
#include "raccd/harness/experiment.hpp"

namespace raccd {
namespace {

SimStats run(const std::string& app, CohMode mode, std::uint32_t ratio,
             bool adr = false, SizeClass size = SizeClass::kTiny) {
  RunSpec spec;
  spec.app = app;
  spec.size = size;
  spec.mode = mode;
  spec.dir_ratio = ratio;
  spec.adr = adr;
  return run_one(spec);
}

TEST(Modes, DirectoryAccessOrdering) {
  // Jacobi: temporally-private blocks. RaCCD must slash directory accesses
  // versus FullCoh; PT lands in between (paper Fig. 7a). Small size: page
  // granularity needs a dataset of many pages to classify anything (on tiny
  // inputs PT degenerates, which is itself the granularity problem the
  // paper describes).
  const SimStats full = run("jacobi", CohMode::kFullCoh, 1, false, SizeClass::kSmall);
  const SimStats pt = run("jacobi", CohMode::kPT, 1, false, SizeClass::kSmall);
  const SimStats raccd = run("jacobi", CohMode::kRaCCD, 1, false, SizeClass::kSmall);
  EXPECT_LT(raccd.fabric.dir_accesses, full.fabric.dir_accesses / 2);
  EXPECT_LT(raccd.fabric.dir_accesses, pt.fabric.dir_accesses);
  EXPECT_LT(pt.fabric.dir_accesses, full.fabric.dir_accesses);
}

TEST(Modes, OccupancyOrderingMatchesFig8) {
  const SimStats full = run("gauss", CohMode::kFullCoh, 1);
  const SimStats pt = run("gauss", CohMode::kPT, 1);
  const SimStats raccd = run("gauss", CohMode::kRaCCD, 1);
  EXPECT_GT(full.avg_dir_occupancy, pt.avg_dir_occupancy);
  EXPECT_GT(pt.avg_dir_occupancy, raccd.avg_dir_occupancy * 0.999);
  EXPECT_GE(full.avg_dir_occupancy, 0.0);
  EXPECT_LE(full.avg_dir_occupancy, 1.0);
}

TEST(Modes, NonCoherentBlockFractionMatchesFig2Ordering) {
  // RaCCD identifies (far) more non-coherent blocks than PT on apps whose
  // data migrates between cores (paper Fig. 2).
  for (const char* app : {"jacobi", "gauss", "histo"}) {
    const SimStats pt = run(app, CohMode::kPT, 1);
    const SimStats raccd = run(app, CohMode::kRaCCD, 1);
    EXPECT_GT(raccd.noncoherent_block_fraction, pt.noncoherent_block_fraction) << app;
    EXPECT_GT(raccd.noncoherent_block_fraction, 0.5) << app;
  }
}

TEST(Modes, FullCohDegradesWithTinyDirectoryRaccdTolerates) {
  // Working sets at tiny size still exceed the 1:256 directory coverage.
  const SimStats full_1 = run("jacobi", CohMode::kFullCoh, 1);
  const SimStats full_256 = run("jacobi", CohMode::kFullCoh, 256);
  const SimStats raccd_1 = run("jacobi", CohMode::kRaCCD, 1);
  const SimStats raccd_256 = run("jacobi", CohMode::kRaCCD, 256);
  const double full_slowdown =
      static_cast<double>(full_256.cycles) / static_cast<double>(full_1.cycles);
  const double raccd_slowdown =
      static_cast<double>(raccd_256.cycles) / static_cast<double>(raccd_1.cycles);
  EXPECT_GT(full_slowdown, 1.05);  // FullCoh visibly hurt
  EXPECT_LT(raccd_slowdown, full_slowdown);
  // LLC hit rate collapses for FullCoh (directory-inclusion invalidations).
  EXPECT_LT(full_256.llc_hit_ratio(), full_1.llc_hit_ratio());
  EXPECT_GT(raccd_256.llc_hit_ratio() + 0.02, full_256.llc_hit_ratio());
}

TEST(Modes, RaccdCutsDirectoryEnergy) {
  const SimStats full = run("gauss", CohMode::kFullCoh, 1);
  const SimStats raccd = run("gauss", CohMode::kRaCCD, 1);
  EXPECT_LT(raccd.fabric.e_dir_pj, full.fabric.e_dir_pj * 0.6);
}

TEST(Modes, AdrSavesEnergyWithoutHurtingRaccd) {
  // JPEG under RaCCD is all-coherent traffic with a small footprint: ADR
  // must power the directory down and cut per-access energy. Small size so
  // the (rare) reconfiguration costs amortize as in the paper.
  const SimStats base = run("jpeg", CohMode::kRaCCD, 1, false, SizeClass::kSmall);
  const SimStats adr = run("jpeg", CohMode::kRaCCD, 1, true, SizeClass::kSmall);
  EXPECT_GT(adr.adr.shrinks, 0u);
  EXPECT_LT(adr.avg_dir_active_frac, 1.0);
  EXPECT_LT(adr.fabric.e_dir_pj, base.fabric.e_dir_pj);
  // Performance stays within a few percent (paper Fig. 9).
  EXPECT_LT(static_cast<double>(adr.cycles), static_cast<double>(base.cycles) * 1.05);
}

TEST(Modes, AdrPowersDownIdleDirectory) {
  // A fully-annotated app under RaCCD generates ~no directory traffic; the
  // task-boundary evaluation must still shrink the powered size to the floor.
  const SimStats adr = run("histo", CohMode::kRaCCD, 1, true, SizeClass::kSmall);
  EXPECT_GT(adr.adr.shrinks, 0u);
  EXPECT_LT(adr.avg_dir_active_frac, 0.25);
}

TEST(Modes, JpegIsRaccdWorstCase) {
  const SimStats raccd = run("jpeg", CohMode::kRaCCD, 1, false, SizeClass::kSmall);
  const SimStats pt = run("jpeg", CohMode::kPT, 1, false, SizeClass::kSmall);
  EXPECT_EQ(raccd.blocks_noncoherent, 0u);
  EXPECT_GT(pt.noncoherent_block_fraction, 0.1);  // PT classifies fine here
  EXPECT_LT(pt.fabric.dir_accesses, raccd.fabric.dir_accesses);
}

TEST(Modes, MeshTrafficAccountingConsistent) {
  // Every mode's NoC stats must balance: responses never exceed requests,
  // and flit-hops are nonzero once there is any cross-tile traffic.
  for (const CohMode mode : kAllModes) {
    const SimStats s = run("md5", mode, 1);
    const auto& req = s.noc.per_class[static_cast<std::size_t>(MsgClass::kRequest)];
    const auto& dat = s.noc.per_class[static_cast<std::size_t>(MsgClass::kResponseData)];
    EXPECT_GT(req.messages, 0u) << to_string(mode);
    EXPECT_LE(dat.messages, req.messages * 2) << to_string(mode);
    EXPECT_GT(s.noc.total_flit_hops(), 0u);
  }
}

}  // namespace
}  // namespace raccd
