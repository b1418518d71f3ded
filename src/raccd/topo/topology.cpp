#include "raccd/topo/topology.hpp"

#include <cstdlib>

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"
#include "raccd/common/format.hpp"

namespace raccd {
namespace {

/// Near-square WxH grid for n nodes (n a power of two): 8 -> 4x2, 16 -> 4x4.
void derive_grid(std::uint32_t n, std::uint32_t& w, std::uint32_t& h) {
  const std::uint32_t bits = log2_exact(n);
  w = 1u << ((bits + 1) / 2);
  h = n / w;
}

}  // namespace

Topology::Topology(const TopologyConfig& cfg, std::uint32_t cores)
    : cfg_(cfg), cores_(cores) {
  RACCD_ASSERT(is_pow2(cores_), "core count must be a power of two");
  RACCD_ASSERT(is_pow2(cfg_.sockets) && cfg_.sockets <= cores_,
               "socket count must be a power of two dividing the core count");
  switch (cfg_.kind) {
    case TopologyKind::kFlatMesh:
      RACCD_ASSERT(cfg_.sockets == 1, "flat mesh is single-socket");
      grid_w_ = cfg_.width;
      grid_h_ = cfg_.height;
      nodes_per_router_ = 1;
      RACCD_ASSERT(grid_w_ * grid_h_ == cores_, "mesh geometry must match core count");
      break;
    case TopologyKind::kCMesh:
      RACCD_ASSERT(cfg_.sockets == 1, "concentrated mesh is single-socket");
      RACCD_ASSERT(is_pow2(cfg_.cluster_size) && cfg_.cluster_size >= 2 &&
                       cfg_.cluster_size <= cores_,
                   "cluster size must be a power of two in [2, cores]");
      nodes_per_router_ = cfg_.cluster_size;
      derive_grid(cores_ / nodes_per_router_, grid_w_, grid_h_);
      break;
    case TopologyKind::kNuma:
      RACCD_ASSERT(cfg_.sockets >= 2, "NUMA topology needs at least two sockets");
      nodes_per_router_ = 1;
      derive_grid(cores_ / cfg_.sockets, grid_w_, grid_h_);
      break;
  }
  // Every message leg and memory request looks its cost up here instead of
  // redoing the coordinate math (at most 64 x 64 routes = 64 KB).
  routes_.reserve(static_cast<std::size_t>(cores_) * cores_);
  for (std::uint32_t from = 0; from < cores_; ++from) {
    for (std::uint32_t to = 0; to < cores_; ++to) routes_.push_back(compute_route(from, to));
  }
  mem_controllers_.reserve(cores_);
  for (std::uint32_t n = 0; n < cores_; ++n) {
    mem_controllers_.push_back(compute_mem_controller(n));
  }
}

std::uint64_t Topology::bank_mask(std::uint32_t socket) const noexcept {
  const std::uint32_t cps = cores_per_socket();
  const std::uint64_t ones = cps >= 64 ? ~0ULL : (1ULL << cps) - 1;
  return ones << (socket * cps);
}

std::uint32_t Topology::socket_of_frame(PageNum frame) const noexcept {
  if (cfg_.sockets == 1) return 0;
  if (cfg_.phys_frames == 0) return static_cast<std::uint32_t>(frame % cfg_.sockets);
  const std::uint64_t per_socket = cfg_.phys_frames / cfg_.sockets;
  const std::uint64_t s = per_socket == 0 ? 0 : frame / per_socket;
  return static_cast<std::uint32_t>(s < cfg_.sockets ? s : cfg_.sockets - 1);
}

BankId Topology::home_bank(LineAddr line) const noexcept {
  if (cfg_.sockets == 1) return static_cast<BankId>(line & (cores_ - 1));
  const PageNum frame = line >> (kPageShift - kLineShift);
  const std::uint32_t socket = socket_of_frame(frame);
  const std::uint32_t banks_per_socket = cores_per_socket();
  return static_cast<BankId>(socket * banks_per_socket + (line & (banks_per_socket - 1)));
}

Topology::Coord Topology::coord_of(std::uint32_t node) const noexcept {
  const std::uint32_t cps = cores_per_socket();
  const std::uint32_t router = (node % cps) / nodes_per_router_;
  return Coord{router % grid_w_, router / grid_w_, node / cps};
}

std::uint32_t Topology::grid_hops(Coord a, Coord b) const noexcept {
  const auto d = [](std::uint32_t p, std::uint32_t q) { return p > q ? p - q : q - p; };
  return d(a.x, b.x) + d(a.y, b.y);
}

Route Topology::compute_route(std::uint32_t from, std::uint32_t to) const noexcept {
  const Coord a = coord_of(from);
  const Coord b = coord_of(to);
  const Cycle per_hop = cfg_.link_cycles + cfg_.router_cycles;
  Route r;
  if (a.socket == b.socket) {
    r.link_hops = grid_hops(a, b);
    r.latency = static_cast<Cycle>(r.link_hops) * per_hop;
    return r;
  }
  // Cross-socket: hop to the local gateway tile (router (0,0)), one
  // point-to-point inter-socket link, then the remote socket's mesh.
  const Coord gateway{0, 0, 0};
  r.link_hops = grid_hops(a, gateway) + grid_hops(gateway, b);
  r.socket_hops = 1;
  r.latency = static_cast<Cycle>(r.link_hops) * per_hop + cfg_.socket_link_cycles;
  return r;
}

std::uint32_t Topology::compute_mem_controller(std::uint32_t node) const noexcept {
  // Controllers sit at the four corners of the node's own router grid (per
  // socket for NUMA), as in common tiled-CMP floorplans. The corner order
  // matches the legacy mesh so flat tie-breaks are unchanged.
  const std::uint32_t socket = socket_of(node);
  const Coord corners[4] = {{0, 0, socket},
                            {grid_w_ - 1, 0, socket},
                            {0, grid_h_ - 1, socket},
                            {grid_w_ - 1, grid_h_ - 1, socket}};
  const Coord here = coord_of(node);
  std::uint32_t best = 0;
  std::uint32_t best_hops = ~0u;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t h = grid_hops(here, corners[i]);
    if (h < best_hops) {
      best_hops = h;
      best = i;
    }
  }
  const Coord c = corners[best];
  const std::uint32_t router = c.y * grid_w_ + c.x;
  return socket * cores_per_socket() + router * nodes_per_router_;
}

std::string Topology::describe() const {
  switch (cfg_.kind) {
    case TopologyKind::kFlatMesh:
      return strprintf("flat %ux%u mesh", grid_w_, grid_h_);
    case TopologyKind::kCMesh:
      return strprintf("concentrated mesh: %ux%u routers x %u cores", grid_w_, grid_h_,
                       nodes_per_router_);
    case TopologyKind::kNuma:
      return strprintf("%u sockets x %u cores (%ux%u mesh/socket, %u-cycle links)",
                       cfg_.sockets, cores_per_socket(), grid_w_, grid_h_,
                       static_cast<unsigned>(cfg_.socket_link_cycles));
  }
  return "?";
}

std::string parse_topology(std::string_view token, TopologyConfig& cfg,
                           std::uint32_t& total_cores) {
  total_cores = 0;
  const std::string t(token);
  const auto parse_u32 = [](const std::string& s, std::uint32_t& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    // No topology number exceeds the 64-core machine limit; rejecting here
    // keeps the uint32 products below from wrapping.
    if (end == nullptr || *end != '\0' || v == 0 || v > 64) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  };
  if (t == "flat") {
    cfg.kind = TopologyKind::kFlatMesh;
    cfg.sockets = 1;
    return {};
  }
  if (t.rfind("cmesh", 0) == 0) {
    cfg.kind = TopologyKind::kCMesh;
    cfg.sockets = 1;
    std::uint32_t k = 4;
    if (t.size() > 5 && !parse_u32(t.substr(5), k)) {
      return "malformed cmesh topology '" + t + "' (expected cmesh or cmesh<K>)";
    }
    if (!is_pow2(k) || k < 2 || k > 64) {
      return "cmesh cluster size must be a power of two in [2, 64]";
    }
    cfg.cluster_size = k;
    return {};
  }
  if (t.rfind("numa", 0) == 0) {
    cfg.kind = TopologyKind::kNuma;
    const std::string rest = t.substr(4);
    const std::size_t x = rest.find('x');
    std::uint32_t sockets = 0;
    std::uint32_t per_socket = 0;
    if (!parse_u32(x == std::string::npos ? rest : rest.substr(0, x), sockets)) {
      return "malformed numa topology '" + t + "' (expected numa<S> or numa<S>x<C>)";
    }
    if (x != std::string::npos && !parse_u32(rest.substr(x + 1), per_socket)) {
      return "malformed numa topology '" + t + "' (expected numa<S>x<C>)";
    }
    if (!is_pow2(sockets) || sockets < 2 || sockets > 16) {
      return "numa socket count must be a power of two in [2, 16]";
    }
    if (per_socket != 0 && (!is_pow2(per_socket) || sockets * per_socket > 64)) {
      return "numa cores/socket must be a power of two with sockets*cores <= 64";
    }
    cfg.sockets = sockets;
    total_cores = per_socket == 0 ? 0 : sockets * per_socket;
    return {};
  }
  return "unknown topology '" + t + "' (expected flat, cmesh[<K>], numa<S>[x<C>])";
}

}  // namespace raccd
