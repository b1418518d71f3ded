// Machine-shape descriptions: how cores, LLC/directory banks, memory
// controllers and memory sockets are arranged, and what every message leg
// costs. Three instances:
//
//  * kFlatMesh — today's model and the default: one WxH mesh, one LLC/dir
//    bank per core, uniform 1-cycle links (paper Table I). Byte-identical to
//    the pre-topology simulator.
//  * kCMesh    — concentrated mesh: `cluster_size` cores share one router,
//    shrinking the router grid and the average hop count (the common
//    scale-out floorplan for 64+ core CMPs).
//  * kNuma     — multi-socket machine: each socket is its own small mesh;
//    sockets are joined by point-to-point links with much higher latency and
//    per-flit energy. Physical memory is divided into per-socket ranges, and
//    a line's home LLC/directory bank sits on the socket that owns its
//    frame — so allocation policy (mem/phys_memory.hpp) decides how much
//    coherence traffic crosses sockets.
//
// The topology owns three mappings the rest of the system routes through:
// socket-of (core / bank / physical frame), home-bank-of-line, and
// route(from, to) -> {on-chip hops, inter-socket hops, head-flit latency}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "raccd/common/types.hpp"

namespace raccd {

enum class TopologyKind : std::uint8_t { kFlatMesh = 0, kCMesh, kNuma };

[[nodiscard]] constexpr const char* to_string(TopologyKind k) noexcept {
  switch (k) {
    case TopologyKind::kFlatMesh: return "flat";
    case TopologyKind::kCMesh: return "cmesh";
    case TopologyKind::kNuma: return "numa";
  }
  return "?";
}

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kFlatMesh;
  std::uint32_t sockets = 1;       ///< >1 only for kNuma
  std::uint32_t width = 4;         ///< node grid (kFlatMesh only; others derive)
  std::uint32_t height = 4;
  std::uint32_t cluster_size = 4;  ///< kCMesh: cores per router
  Cycle link_cycles = 1;
  Cycle router_cycles = 1;
  /// Head-flit latency of one inter-socket link traversal (kNuma). Roughly
  /// a QPI/UPI-class hop vs the 2-cycle on-chip hop.
  Cycle socket_link_cycles = 40;
  /// Per-flit energy of an inter-socket hop, as a multiple of the on-chip
  /// per-flit-hop energy (off-package SerDes links burn far more).
  double socket_hop_energy_scale = 8.0;
  /// Total physical frames, for the per-socket memory ranges behind
  /// socket_of_frame(). 0 (direct fabric construction in tests) falls back
  /// to frame-modulo striping.
  std::uint64_t phys_frames = 0;
};

/// One message leg, as costed by the topology.
struct Route {
  std::uint32_t link_hops = 0;    ///< on-chip links traversed (flit-hop basis)
  std::uint32_t socket_hops = 0;  ///< inter-socket links traversed (0 or 1)
  Cycle latency = 0;              ///< head-flit latency of the whole route

  [[nodiscard]] constexpr std::uint32_t total_hops() const noexcept {
    return link_hops + socket_hops;
  }
};

class Topology {
 public:
  Topology(const TopologyConfig& cfg, std::uint32_t cores);

  [[nodiscard]] const TopologyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t cores() const noexcept { return cores_; }
  [[nodiscard]] std::uint32_t sockets() const noexcept { return cfg_.sockets; }
  [[nodiscard]] std::uint32_t cores_per_socket() const noexcept {
    return cores_ / cfg_.sockets;
  }

  /// Socket of a node id (cores and LLC/directory banks share tile ids).
  [[nodiscard]] std::uint32_t socket_of(std::uint32_t node) const noexcept {
    return node / cores_per_socket();
  }
  [[nodiscard]] bool cross_socket(std::uint32_t a, std::uint32_t b) const noexcept {
    return socket_of(a) != socket_of(b);
  }
  /// Bitmask of the banks on `socket` (banks == cores <= 64).
  [[nodiscard]] std::uint64_t bank_mask(std::uint32_t socket) const noexcept;

  /// Memory socket owning a physical frame: per-socket contiguous ranges of
  /// cfg.phys_frames frames (frame-modulo striping when phys_frames == 0).
  [[nodiscard]] std::uint32_t socket_of_frame(PageNum frame) const noexcept;

  /// Home LLC/directory bank of a physical line: line-interleaved across the
  /// banks of the socket that owns the line's frame (across all banks on
  /// single-socket topologies — identical to the legacy `line & (cores-1)`).
  [[nodiscard]] BankId home_bank(LineAddr line) const noexcept;

  /// Cost one message leg between two nodes: a lookup in the table that
  /// the constructor fills from compute_route().
  [[nodiscard]] Route route(std::uint32_t from, std::uint32_t to) const noexcept {
    return routes_[static_cast<std::size_t>(from) * cores_ + to];
  }

  /// Node id of the memory controller serving `node`: a lookup in the table
  /// that the constructor fills from compute_mem_controller().
  [[nodiscard]] std::uint32_t mem_controller(std::uint32_t node) const noexcept {
    return mem_controllers_[node];
  }

  /// Route by coordinate math (XY routing per mesh; NUMA routes through the
  /// sockets' gateway tiles and one inter-socket link).
  [[nodiscard]] Route compute_route(std::uint32_t from, std::uint32_t to) const noexcept;

  /// Memory controller by coordinate math: the nearest corner of the node's
  /// own socket/router grid (memory is attached per socket).
  [[nodiscard]] std::uint32_t compute_mem_controller(std::uint32_t node) const noexcept;

  /// Human-readable shape, e.g. "2 sockets x 8 cores (4x2 mesh/socket)".
  [[nodiscard]] std::string describe() const;

 private:
  struct Coord {
    std::uint32_t x = 0, y = 0, socket = 0;
  };
  [[nodiscard]] Coord coord_of(std::uint32_t node) const noexcept;
  [[nodiscard]] std::uint32_t grid_hops(Coord a, Coord b) const noexcept;

  TopologyConfig cfg_;
  std::uint32_t cores_;
  std::uint32_t grid_w_ = 4;  ///< router-grid dims (per socket for kNuma)
  std::uint32_t grid_h_ = 4;
  std::uint32_t nodes_per_router_ = 1;  ///< >1 only for kCMesh
  std::vector<Route> routes_;                   ///< cores x cores, row = from
  std::vector<std::uint32_t> mem_controllers_;  ///< per node
};

/// Parse a topology token: "flat", "cmesh" / "cmesh<K>" (K cores per
/// router), "numa<S>" (S sockets over the preset core count), or
/// "numa<S>x<C>" (S sockets of C cores each; total replaces the preset).
/// Fills `cfg` (kind, sockets, cluster_size) and `total_cores` (0 = keep the
/// machine preset). Returns "" on success or an error message.
[[nodiscard]] std::string parse_topology(std::string_view token, TopologyConfig& cfg,
                                         std::uint32_t& total_cores);

}  // namespace raccd
