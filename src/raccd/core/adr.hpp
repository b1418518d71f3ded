// Adaptive Directory Reduction (paper §III-D).
//
// A per-bank occupancy monitor is updated whenever a directory entry is
// allocated or evicted (the fabric exposes a dirty-bank mask to avoid
// resizing mid-transaction). When occupancy crosses theta_inc (80% of the
// current active size) the bank doubles its sets; below theta_dec (20%) it
// halves them. The 80/20 pair forms a hysteresis loop (after a resize the
// occupancy ratio lands between the thresholds). Reconfiguration re-indexes
// entries, recalls conflict overflow and blocks the bank (cost modelled in
// Fabric::resize_dir_bank); Gated-Vdd leakage of powered-off sets is zero.
//
// On multi-socket topologies the monitor also consults the bank's *socket*
// occupancy (home banks are socket-local, so per-socket working sets are
// correlated): a bank never powers down while its socket sits at the grow
// threshold, damping shrink/grow bounce. Single-socket machines keep the
// paper's pure per-bank hysteresis.
#pragma once

#include <cstdint>

#include "raccd/coherence/fabric.hpp"
#include "raccd/common/types.hpp"
#include "raccd/core/adr_config.hpp"

namespace raccd {

class AdrController {
 public:
  AdrController(Fabric& fabric, const AdrConfig& cfg);

  /// Check banks whose occupancy changed since the last poll and resize any
  /// that crossed a threshold. Call between accesses (never mid-transaction).
  void poll(Cycle now);

  /// Evaluate every bank regardless of recent activity. The machine calls
  /// this at task completion boundaries so banks with *no* directory traffic
  /// (fully non-coherent phases) still power down to their floor.
  void poll_all(Cycle now);

  [[nodiscard]] const AdrStats& stats() const noexcept { return stats_; }

 private:
  void consider_bank(BankId b, Cycle now);

  Fabric& fabric_;
  AdrConfig cfg_;
  AdrStats stats_;
  std::uint32_t min_sets_;
};

}  // namespace raccd
