#include "raccd/noc/mesh.hpp"

#include "raccd/common/assert.hpp"

namespace raccd {

std::uint64_t NocStats::total_messages() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : per_class) sum += c.messages;
  return sum;
}
std::uint64_t NocStats::total_flits() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : per_class) sum += c.flits;
  return sum;
}
std::uint64_t NocStats::total_flit_hops() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : per_class) sum += c.flit_hops;
  return sum;
}
Mesh::Mesh(const MeshConfig& cfg, const TopologyConfig& topo, std::uint32_t cores)
    : cfg_(cfg), topo_(topo, cores) {
  RACCD_ASSERT(cfg_.flit_bytes > 0, "flit size must be positive");
}

std::uint32_t Mesh::flits_for(MsgClass cls) const noexcept {
  const std::uint32_t bytes = (cls == MsgClass::kResponseData || cls == MsgClass::kWriteback)
                                  ? cfg_.data_bytes
                                  : cfg_.control_bytes;
  return (bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
}

Cycle Mesh::latency(std::uint32_t from, std::uint32_t to, MsgClass cls) const noexcept {
  const Route r = topo_.route(from, to);
  if (r.total_hops() == 0) return 0;  // same tile: bank is local, no network traversal
  // Wormhole pipeline: head flit pays the route, body flits stream behind.
  return r.latency + (flits_for(cls) - 1);
}

Cycle Mesh::transfer(const Route& r, MsgClass cls) noexcept {
  NocStats& st = sink_ != nullptr ? *sink_ : stats_;
  const std::uint32_t flits = flits_for(cls);
  auto& pc = st.per_class[static_cast<std::size_t>(cls)];
  ++pc.messages;
  pc.flits += flits;
  pc.flit_hops += static_cast<std::uint64_t>(flits) * r.total_hops();
  if (r.socket_hops > 0) {
    ++st.cross_socket.messages;
    st.cross_socket.flits += flits;
    st.cross_socket.flit_hops += static_cast<std::uint64_t>(flits) * r.total_hops();
    st.socket_link_flits += static_cast<std::uint64_t>(flits) * r.socket_hops;
  }
  if (r.total_hops() == 0) return 0;
  return r.latency + (flits - 1);
}

}  // namespace raccd
