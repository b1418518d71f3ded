#include <gtest/gtest.h>

#include "raccd/energy/area_model.hpp"
#include "raccd/energy/energy_model.hpp"

namespace raccd {
namespace {

TEST(EnergyModel, DirEnergyScalesWithSqrtOfSize) {
  const double full = dir_access_pj(32768, 32768);
  EXPECT_DOUBLE_EQ(full, 20.0);  // reference point
  EXPECT_NEAR(dir_access_pj(8192, 32768), full / 2.0, 1e-9);   // 4x smaller -> /2
  EXPECT_NEAR(dir_access_pj(512, 32768), full / 8.0, 1e-9);    // 64x smaller -> /8
  EXPECT_DOUBLE_EQ(dir_access_pj(0, 32768), 0.0);
  // The reference is the machine's LLC bank: a full bank of any size costs
  // the reference energy.
  EXPECT_DOUBLE_EQ(dir_access_pj(2048, 2048), 20.0);
}

TEST(EnergyModel, MonotoneInActiveSize) {
  double prev = 0.0;
  for (std::uint32_t n = 64; n <= 32768; n *= 2) {
    const double cur = dir_access_pj(n, 32768);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(EnergyModel, Leakage) {
  // 1 entry for 1e9 cycles at 1 GHz = 1 s -> 132 pW * 1 s = 132 pJ.
  EXPECT_NEAR(dir_leakage_pj(1, 1000000000ull), 132.0, 1e-6);
  EXPECT_DOUBLE_EQ(dir_leakage_pj(0, 12345), 0.0);
}

TEST(AreaModel, EntryStorageMatchesPaper) {
  // Paper Table III: 524288 entries x 66 bits = 4224 KB.
  EXPECT_DOUBLE_EQ(AreaModel::directory_kb(524288), 4224.0);
  EXPECT_DOUBLE_EQ(AreaModel::directory_kb(524288 / 256), 16.5);
}

TEST(AreaModel, AnchorsReproduceTableIII) {
  const struct {
    std::uint64_t entries;
    double kb;
    double mm2;
  } rows[] = {
      {524288, 4224.0, 106.08}, {262144, 2112.0, 53.92}, {131072, 1056.0, 34.08},
      {65536, 528.0, 21.28},    {32768, 264.0, 14.88},   {8192, 66.0, 6.18},
      {2048, 16.5, 2.64},
  };
  for (const auto& r : rows) {
    const DirStorage s = AreaModel::directory_storage(r.entries);
    EXPECT_DOUBLE_EQ(s.kilobytes, r.kb);
    EXPECT_NEAR(s.area_mm2, r.mm2, 1e-9) << r.entries;
  }
}

TEST(AreaModel, InterpolationIsMonotone) {
  double prev = 0.0;
  for (std::uint64_t e = 1024; e <= 1048576; e *= 2) {
    const double a = AreaModel::directory_storage(e).area_mm2;
    EXPECT_GT(a, prev);
    prev = a;
  }
}

}  // namespace
}  // namespace raccd
