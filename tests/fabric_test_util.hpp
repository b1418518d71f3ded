// Shared helpers for protocol-level tests: a small 4-core fabric with tight
// cache/directory geometry so eviction/recall paths trigger quickly.
#pragma once

#include "raccd/coherence/checker.hpp"
#include "raccd/coherence/fabric.hpp"

namespace raccd::testutil {

inline FabricConfig small_fabric_config() {
  FabricConfig cfg;
  cfg.cores = 4;
  cfg.topo.width = 2;
  cfg.topo.height = 2;
  cfg.l1 = L1Geometry{1024, 2};  // 8 sets x 2 ways
  cfg.llc.lines_per_bank = 64;   // 8 sets x 8 ways
  cfg.llc.ways = 8;
  cfg.dir.entries_per_bank = 64;
  cfg.dir.ways = 8;
  cfg.energy.dir_ref_entries = 64;
  cfg.energy.llc_ref_lines = 64;
  return cfg;
}

/// Line that maps to bank `bank` with per-bank offset `i` (4 banks).
inline LineAddr line_in_bank(std::uint32_t bank, std::uint64_t i) {
  return (i << 2) | bank;
}

}  // namespace raccd::testutil
