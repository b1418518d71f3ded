#include <gtest/gtest.h>

#include "raccd/noc/mesh.hpp"

namespace raccd {
namespace {

/// The default machine's NoC: a 4x4 flat mesh, 1-cycle links and routers.
Mesh default_mesh() { return Mesh{TopologyConfig{}, 16}; }

TEST(Mesh, HopCountsOn4x4) {
  Mesh mesh = default_mesh();
  EXPECT_EQ(mesh.node_count(), 16u);
  EXPECT_EQ(mesh.hops(0, 0), 0u);
  EXPECT_EQ(mesh.hops(0, 3), 3u);
  EXPECT_EQ(mesh.hops(0, 15), 6u);   // (0,0) -> (3,3)
  EXPECT_EQ(mesh.hops(5, 10), 2u);   // (1,1) -> (2,2)
  EXPECT_EQ(mesh.hops(12, 3), 6u);   // corners
  EXPECT_EQ(mesh.hops(7, 4), 3u);    // same row
}

TEST(Mesh, HopsSymmetric) {
  Mesh mesh = default_mesh();
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
    }
  }
}

TEST(Mesh, FlitSizing) {
  Mesh mesh = default_mesh();
  // control: 8 B in 16 B flits -> 1 flit; data: 72 B -> 5 flits.
  EXPECT_EQ(mesh.flits_for(MsgClass::kRequest), 1u);
  EXPECT_EQ(mesh.flits_for(MsgClass::kInval), 1u);
  EXPECT_EQ(mesh.flits_for(MsgClass::kAck), 1u);
  EXPECT_EQ(mesh.flits_for(MsgClass::kResponseData), 5u);
  EXPECT_EQ(mesh.flits_for(MsgClass::kWriteback), 5u);
}

TEST(Mesh, LatencyModel) {
  Mesh mesh = default_mesh();
  // Same tile: free. 1 hop control: link+router = 2. 1 hop data: 2 + 4 body flits.
  EXPECT_EQ(mesh.latency(0, 0, MsgClass::kRequest), 0u);
  EXPECT_EQ(mesh.latency(0, 1, MsgClass::kRequest), 2u);
  EXPECT_EQ(mesh.latency(0, 1, MsgClass::kResponseData), 6u);
  EXPECT_EQ(mesh.latency(0, 15, MsgClass::kRequest), 12u);
}

TEST(Mesh, TrafficAccounting) {
  Mesh mesh = default_mesh();
  mesh.transfer(0, 15, MsgClass::kResponseData);  // 5 flits x 6 hops
  mesh.transfer(3, 3, MsgClass::kRequest);        // local: 0 flit-hops
  mesh.transfer(0, 1, MsgClass::kInval);          // 1 flit x 1 hop
  const NocStats& s = mesh.stats();
  EXPECT_EQ(s.total_messages(), 3u);
  EXPECT_EQ(s.total_flit_hops(), 5u * 6 + 0 + 1);
  EXPECT_EQ(s.per_class[static_cast<std::size_t>(MsgClass::kResponseData)].flit_hops, 30u);
  mesh.reset_stats();
  EXPECT_EQ(mesh.stats().total_messages(), 0u);
}

TEST(Mesh, NearestMemoryController) {
  Mesh mesh = default_mesh();
  EXPECT_EQ(mesh.nearest_memory_controller(0), 0u);
  EXPECT_EQ(mesh.nearest_memory_controller(3), 3u);
  EXPECT_EQ(mesh.nearest_memory_controller(12), 12u);
  EXPECT_EQ(mesh.nearest_memory_controller(15), 15u);
  EXPECT_EQ(mesh.nearest_memory_controller(5), 0u);   // (1,1): corner (0,0)
  EXPECT_EQ(mesh.nearest_memory_controller(10), 15u);  // (2,2): corner (3,3)
}

TEST(Mesh, NonSquareGeometry) {
  TopologyConfig topo;
  topo.width = 8;
  topo.height = 2;
  Mesh mesh{topo, 16};
  EXPECT_EQ(mesh.node_count(), 16u);
  EXPECT_EQ(mesh.hops(0, 15), 8u);  // (0,0)->(7,1)
}

TEST(NocStats, Accumulation) {
  NocStats a, b;
  a.per_class[0].messages = 2;
  a.per_class[0].flit_hops = 10;
  b.per_class[0].messages = 3;
  b.per_class[0].flit_hops = 5;
  a.add(b);
  EXPECT_EQ(a.per_class[0].messages, 5u);
  EXPECT_EQ(a.total_flit_hops(), 15u);
}

}  // namespace
}  // namespace raccd
