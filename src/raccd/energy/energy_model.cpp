#include "raccd/energy/energy_model.hpp"

#include <cmath>

namespace raccd {

double dir_access_pj(std::uint32_t active_entries, std::uint32_t ref_entries) noexcept {
  if (active_entries == 0) return 0.0;
  return kDirRefPj *
         std::pow(static_cast<double>(active_entries) / ref_entries, kSizeExponent);
}

double dir_leakage_pj(std::uint64_t active_entries, std::uint64_t cycles,
                      double ghz) noexcept {
  // pW * cycles / (GHz * 1e9 cycles/s) = pJ * 1e-9; fold the 1e-9 in.
  const double seconds = static_cast<double>(cycles) / (ghz * 1e9);
  return kDirLeakPwPerEntry * static_cast<double>(active_entries) * seconds;
}

}  // namespace raccd
