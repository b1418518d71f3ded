#include "raccd/sim/config.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"
#include "raccd/topo/topology.hpp"

namespace raccd {

SimConfig SimConfig::scaled(CohMode mode) {
  SimConfig cfg;
  cfg.mode = mode;
  cfg.fabric.cores = 16;
  cfg.fabric.l1 = L1Geometry{32 * 1024, 2};
  cfg.fabric.llc.lines_per_bank = 2048;  // 128 KB/bank, 2 MB total
  cfg.fabric.llc.ways = 8;
  cfg.fabric.dir.entries_per_bank = 2048;  // 1:1
  cfg.fabric.dir.ways = 8;
  cfg.fabric.energy.dir_ref_entries = 2048;
  cfg.fabric.energy.llc_ref_lines = 2048;
  return cfg;
}

SimConfig SimConfig::paper(CohMode mode) {
  SimConfig cfg = scaled(mode);
  cfg.fabric.llc.lines_per_bank = 32768;  // 2 MB/bank, 32 MB total
  cfg.fabric.dir.entries_per_bank = 32768;
  cfg.fabric.energy.dir_ref_entries = 32768;
  cfg.fabric.energy.llc_ref_lines = 32768;
  cfg.phys_mb = 4096;
  return cfg;
}

std::string SimConfig::apply_topology(std::string_view token) {
  TopologyConfig tc = fabric.topo;
  std::uint32_t total_cores = 0;
  const std::string err = parse_topology(token, tc, total_cores);
  if (!err.empty()) return err;
  if (total_cores != 0) fabric.cores = total_cores;
  if (fabric.cores > 64) return "core count limited to 64 (sharer bit-vector)";
  if (tc.sockets > fabric.cores) return "more sockets than cores";
  if (tc.kind == TopologyKind::kCMesh && tc.cluster_size > fabric.cores) {
    return "cmesh cluster larger than the core count";
  }
  fabric.topo = tc;
  return {};
}

std::string SimConfig::apply_dram(std::string_view token) {
  return parse_dram(token, fabric.dram);
}

std::string parse_sampling(std::string_view token, SamplingConfig& cfg) {
  SamplingConfig out;
  out.enabled = true;
  std::uint32_t parts[3] = {0, 0, 1};  // warmup defaults to 1
  std::size_t part = 0;
  std::size_t pos = 0;
  while (true) {
    std::size_t slash = token.find('/', pos);
    if (slash == std::string_view::npos) slash = token.size();
    const std::string_view piece = token.substr(pos, slash - pos);
    if (piece.empty()) return "empty field in sampling token (period/window[/warmup])";
    if (part == 3) return "too many fields in sampling token (period/window[/warmup])";
    std::uint64_t v = 0;
    for (const char c : piece) {
      if (c < '0' || c > '9') {
        return "sampling token must be period/window[/warmup] with decimal fields";
      }
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > 1'000'000'000) return "sampling field too large";
    }
    parts[part++] = static_cast<std::uint32_t>(v);
    if (slash == token.size()) break;
    pos = slash + 1;
  }
  if (part < 2) return "sampling token needs at least period/window";
  out.period = parts[0];
  out.window = parts[1];
  out.warmup = parts[2];
  if (out.period == 0) return "sampling period must be >= 1 task";
  if (out.window == 0) return "sampling window must be >= 1 task";
  cfg = out;
  return {};
}

std::string SimConfig::apply_sampling(std::string_view token) {
  return parse_sampling(token, sampling);
}

void SimConfig::set_dir_ratio(std::uint32_t n) {
  RACCD_ASSERT(is_pow2(n), "directory ratio must be a power of two");
  const std::uint32_t entries = fabric.llc.lines_per_bank / n;
  RACCD_ASSERT(entries >= fabric.dir.ways, "directory smaller than one set");
  fabric.dir.entries_per_bank = entries;
}

}  // namespace raccd
