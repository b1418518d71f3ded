// ADR configuration and statistics, split from adr.hpp so stats-only
// consumers (SimConfig, SimStats, report) don't pull in the controller and
// the full fabric it drives.
#pragma once

#include <cstdint>

#include "raccd/common/field_list.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

struct AdrConfig {
  bool enabled = false;
  double theta_inc = 0.80;
  double theta_dec = 0.20;
  /// Lower bound on powered sets, as a divisor of the configured size
  /// (256 == the paper's most extreme static configuration, 1:256).
  std::uint32_t min_sets_divisor = 256;
};

#define RACCD_ADR_STATS_FIELDS(X)     \
  X(std::uint64_t, polls)             \
  X(std::uint64_t, grows)             \
  X(std::uint64_t, shrinks)           \
  X(std::uint64_t, entries_moved)     \
  X(std::uint64_t, entries_displaced) \
  X(Cycle, blocked_cycles)

struct AdrStats {
  RACCD_FIELDS(AdrStats, RACCD_ADR_STATS_FIELDS)
};

}  // namespace raccd
