// Topology layer tests: flat equivalence with the legacy mesh, token
// parsing, socket views and socket-local home banking on NUMA shapes,
// socket-aware page placement, end-to-end cross-socket stats, and
// determinism of topology-swept runs.
#include <gtest/gtest.h>

#include "fabric_test_util.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/grid.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/mem/phys_memory.hpp"
#include "raccd/topo/topology.hpp"

namespace raccd {
namespace {

[[nodiscard]] TopologyConfig flat4x4() {
  TopologyConfig t;
  t.kind = TopologyKind::kFlatMesh;
  t.width = 4;
  t.height = 4;
  return t;
}

TEST(Topology, FlatMatchesLegacyMesh) {
  const Topology topo(flat4x4(), 16);
  EXPECT_EQ(topo.sockets(), 1u);
  // Manhattan hops under XY routing, 2 cycles per hop (link + router).
  EXPECT_EQ(topo.route(0, 0).total_hops(), 0u);
  EXPECT_EQ(topo.route(0, 0).latency, 0u);
  EXPECT_EQ(topo.route(0, 15).total_hops(), 6u);
  EXPECT_EQ(topo.route(0, 15).latency, 12u);
  EXPECT_EQ(topo.route(5, 6).total_hops(), 1u);
  EXPECT_EQ(topo.route(0, 15).socket_hops, 0u);
  // Home bank is the legacy line-interleave; everything is socket 0.
  for (LineAddr l = 0; l < 64; ++l) {
    EXPECT_EQ(topo.home_bank(l), static_cast<BankId>(l & 15));
  }
  EXPECT_EQ(topo.socket_of(0), 0u);
  EXPECT_EQ(topo.socket_of(15), 0u);
  // Corner memory controllers with the legacy tie-break.
  EXPECT_EQ(topo.mem_controller(0), 0u);
  EXPECT_EQ(topo.mem_controller(5), 0u);
  EXPECT_EQ(topo.mem_controller(10), 15u);
  EXPECT_EQ(topo.mem_controller(15), 15u);
}

TEST(Topology, ParseTokens) {
  TopologyConfig cfg;
  std::uint32_t cores = 0;
  EXPECT_EQ(parse_topology("flat", cfg, cores), "");
  EXPECT_EQ(cfg.kind, TopologyKind::kFlatMesh);
  EXPECT_EQ(cores, 0u);

  EXPECT_EQ(parse_topology("cmesh", cfg, cores), "");
  EXPECT_EQ(cfg.kind, TopologyKind::kCMesh);
  EXPECT_EQ(cfg.cluster_size, 4u);
  EXPECT_EQ(parse_topology("cmesh8", cfg, cores), "");
  EXPECT_EQ(cfg.cluster_size, 8u);

  EXPECT_EQ(parse_topology("numa2", cfg, cores), "");
  EXPECT_EQ(cfg.kind, TopologyKind::kNuma);
  EXPECT_EQ(cfg.sockets, 2u);
  EXPECT_EQ(cores, 0u);
  EXPECT_EQ(parse_topology("numa4x16", cfg, cores), "");
  EXPECT_EQ(cfg.sockets, 4u);
  EXPECT_EQ(cores, 64u);

  EXPECT_NE(parse_topology("ring", cfg, cores), "");
  EXPECT_NE(parse_topology("numa3", cfg, cores), "");
  EXPECT_NE(parse_topology("numa2x48", cfg, cores), "");  // 96 cores > 64
  EXPECT_NE(parse_topology("cmesh3", cfg, cores), "");
}

TEST(Topology, NumaSocketViewsAndRoutes) {
  TopologyConfig tc;
  tc.kind = TopologyKind::kNuma;
  tc.sockets = 2;
  const Topology topo(tc, 16);  // 2 sockets x 8 cores (4x2 mesh each)
  EXPECT_EQ(topo.cores_per_socket(), 8u);
  EXPECT_EQ(topo.socket_of(0), 0u);
  EXPECT_EQ(topo.socket_of(7), 0u);
  EXPECT_EQ(topo.socket_of(8), 1u);
  EXPECT_TRUE(topo.cross_socket(0, 8));
  EXPECT_FALSE(topo.cross_socket(0, 7));
  EXPECT_EQ(topo.bank_mask(0), 0x00FFull);
  EXPECT_EQ(topo.bank_mask(1), 0xFF00ull);

  // Same-socket routes never touch the socket link.
  const Route local = topo.route(0, 7);
  EXPECT_EQ(local.socket_hops, 0u);
  EXPECT_EQ(local.total_hops(), 4u);  // (0,0) -> (3,1) on a 4x2 grid
  // Cross-socket routes pay local legs to/from the gateways plus the link.
  const Route cross = topo.route(0, 8);
  EXPECT_EQ(cross.socket_hops, 1u);
  EXPECT_EQ(cross.link_hops, 0u);  // both tiles are their socket's gateway
  EXPECT_EQ(cross.latency, 40u);
  const Route far = topo.route(7, 15);
  EXPECT_EQ(far.socket_hops, 1u);
  EXPECT_EQ(far.link_hops, 8u);  // 4 hops to gateway, 4 from it
  EXPECT_EQ(far.latency, 8u * 2 + 40u);
  // Memory controllers never leave the node's socket.
  for (std::uint32_t n = 0; n < 16; ++n) {
    EXPECT_EQ(topo.socket_of(topo.mem_controller(n)), topo.socket_of(n));
  }
}

TEST(Topology, NumaHomeBankFollowsFrameSocket) {
  TopologyConfig tc;
  tc.kind = TopologyKind::kNuma;
  tc.sockets = 2;
  tc.phys_frames = 1024;  // socket 0 owns frames [0,512), socket 1 [512,1024)
  const Topology topo(tc, 16);
  const LineAddr socket0_line = 0;
  const LineAddr socket1_line = LineAddr{600} * kLinesPerPage;
  EXPECT_LT(topo.home_bank(socket0_line), 8u);
  EXPECT_GE(topo.home_bank(socket1_line), 8u);
  // Within a socket, lines interleave across its banks.
  EXPECT_EQ(topo.home_bank(1), 1u);
  EXPECT_EQ(topo.home_bank(socket1_line + 3), 8u + 3u);
}

TEST(Topology, CMeshConcentratesRouters) {
  TopologyConfig tc;
  tc.kind = TopologyKind::kCMesh;
  tc.cluster_size = 4;
  const Topology topo(tc, 16);  // 4 routers in a 2x2 grid
  EXPECT_EQ(topo.route(0, 3).total_hops(), 0u);   // same cluster: no links
  EXPECT_EQ(topo.route(0, 3).latency, 0u);
  EXPECT_EQ(topo.route(0, 15).total_hops(), 2u);  // opposite corner routers
  // Concentration shortens the worst-case path vs the flat 4x4 (6 hops).
  const Topology flat(flat4x4(), 16);
  EXPECT_LT(topo.route(0, 15).total_hops(), flat.route(0, 15).total_hops());
}

TEST(Topology, RouteTablesMatchCoordinateMath) {
  // route() and mem_controller() serve tables built at construction; every
  // entry must equal the direct computation, on every topology kind and up
  // to the 64-core limit (flat 8x8, numa2x32).
  const struct {
    const char* token;
    std::uint32_t cores;
  } shapes[] = {{"flat", 16}, {"flat", 64}, {"cmesh", 16}, {"cmesh8", 64},
                {"numa2", 16}, {"numa4", 16}, {"numa2x32", 64}};
  for (const auto& shape : shapes) {
    TopologyConfig tc;
    std::uint32_t cores = 0;
    ASSERT_EQ(parse_topology(shape.token, tc, cores), "") << shape.token;
    if (cores == 0) cores = shape.cores;
    if (tc.kind == TopologyKind::kFlatMesh) {
      tc.width = cores == 64 ? 8 : 4;
      tc.height = cores / tc.width;
    }
    const Topology topo(tc, cores);
    for (std::uint32_t from = 0; from < cores; ++from) {
      for (std::uint32_t to = 0; to < cores; ++to) {
        const Route got = topo.route(from, to);
        const Route want = topo.compute_route(from, to);
        SCOPED_TRACE(testing::Message() << shape.token << " " << from << "->" << to);
        ASSERT_EQ(got.link_hops, want.link_hops);
        ASSERT_EQ(got.socket_hops, want.socket_hops);
        ASSERT_EQ(got.latency, want.latency);
      }
      ASSERT_EQ(topo.mem_controller(from), topo.compute_mem_controller(from))
          << shape.token << " node " << from;
    }
  }
}

TEST(PhysMemorySockets, FirstTouchAllocatesOnRequestedSocket) {
  PhysMemory pm(128, AllocPolicy::kFirstTouch, /*seed=*/1, /*sockets=*/4);
  const PageNum f0 = pm.alloc_frame_on(0);
  const PageNum f2 = pm.alloc_frame_on(2);
  const PageNum f2b = pm.alloc_frame_on(2);
  EXPECT_EQ(pm.socket_of_frame(f0), 0u);
  EXPECT_EQ(pm.socket_of_frame(f2), 2u);
  EXPECT_EQ(pm.socket_of_frame(f2b), 2u);
  EXPECT_NE(f2, f2b);
  EXPECT_EQ(pm.frames_allocated(), 3u);
}

TEST(PhysMemorySockets, FirstTouchFallsBackWhenSocketExhausted) {
  PhysMemory pm(8, AllocPolicy::kFirstTouch, 1, 2);  // 4 frames/socket
  for (int i = 0; i < 4; ++i) EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame_on(0)), 0u);
  EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame_on(0)), 1u);  // socket 0 full
}

TEST(PhysMemorySockets, InterleaveRoundRobinsSockets) {
  PhysMemory pm(64, AllocPolicy::kInterleave, 1, 2);
  EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame()), 0u);
  EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame()), 1u);
  EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame()), 0u);
  EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame()), 1u);
}

TEST(PhysMemorySockets, ContiguousFillsSocketZeroFirst) {
  PhysMemory pm(64, AllocPolicy::kContiguous, 1, 2);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame()), 0u);
  EXPECT_EQ(pm.socket_of_frame(pm.alloc_frame()), 1u);
}

TEST(FabricTopo, SocketDirOccupancyAndCrossSocketRequests) {
  FabricConfig cfg = testutil::small_fabric_config();
  cfg.topo.kind = TopologyKind::kNuma;
  cfg.topo.sockets = 2;  // 2 sockets x 2 cores; frame-modulo memory striping
  Fabric fabric(cfg);
  ASSERT_EQ(fabric.topology().sockets(), 2u);
  // Frame 0 (lines 0..63) belongs to socket 0: its home banks are 0/1, so a
  // socket-1 core's request crosses the socket link and only socket 0's
  // directory banks fill.
  (void)fabric.access(/*core=*/3, /*line=*/0, /*is_write=*/false, /*nc=*/false, 0);
  EXPECT_EQ(fabric.stats().dir_reqs_cross_socket, 1u);
  EXPECT_GT(fabric.mesh().stats().cross_socket.messages, 0u);
  EXPECT_GT(fabric.socket_dir_occupancy(0), 0.0);
  EXPECT_EQ(fabric.socket_dir_occupancy(1), 0.0);
  // A socket-0 core hitting the same home stays on-socket.
  (void)fabric.access(/*core=*/1, /*line=*/1, false, false, 10);
  EXPECT_EQ(fabric.stats().dir_reqs_cross_socket, 1u);
}

TEST(RunSpecTopo, KeyExtendsOnlyForNonFlat) {
  RunSpec flat;
  flat.app = "jacobi";
  flat.size = SizeClass::kSmall;
  flat.mode = CohMode::kFullCoh;
  EXPECT_EQ(flat.key(), "jacobi-small-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5");
  RunSpec numa = flat;
  numa.topo = "numa2";
  EXPECT_EQ(numa.key(), "jacobi-small-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-tnuma2");
  RunSpec ft = flat;
  ft.alloc = AllocPolicy::kFirstTouch;
  EXPECT_EQ(ft.key(), "jacobi-small-FullCoh-d1-s42-nl1-ne32-ft-fifo-v5");
}

TEST(RunSpecTopo, ConfigForAppliesTopology) {
  RunSpec spec;
  spec.topo = "numa4x16";
  const SimConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.fabric.topo.kind, TopologyKind::kNuma);
  EXPECT_EQ(cfg.fabric.topo.sockets, 4u);
  EXPECT_EQ(cfg.fabric.cores, 64u);
}

TEST(GridTopo, TopologiesAreAnInnermostAxis) {
  const auto specs = Grid()
                         .workload("histo")
                         .modes({CohMode::kFullCoh, CohMode::kRaCCD})
                         .topologies({"flat", "numa2"})
                         .specs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].topo, "flat");
  EXPECT_EQ(specs[1].topo, "numa2");
  EXPECT_EQ(specs[0].mode, CohMode::kFullCoh);
  EXPECT_EQ(specs[2].mode, CohMode::kRaCCD);
}

TEST(TopologyEndToEnd, CrossSocketStatsOnlyOnNuma) {
  RunSpec spec;
  spec.app = "histo";
  spec.size = SizeClass::kTiny;
  spec.mode = CohMode::kFullCoh;
  const SimStats flat = run_one(spec);
  EXPECT_EQ(flat.noc.cross_socket.messages, 0u);
  EXPECT_EQ(flat.fabric.dir_reqs_cross_socket, 0u);
  EXPECT_EQ(flat.noc.socket_link_flits, 0u);

  spec.topo = "numa2";
  const SimStats numa = run_one(spec);
  EXPECT_GT(numa.noc.cross_socket.messages, 0u);
  EXPECT_GT(numa.noc.socket_link_flits, 0u);
  EXPECT_LE(numa.noc.cross_socket.flit_hops, numa.noc.total_flit_hops());
  EXPECT_GT(numa.cycles, 0u);
}

TEST(TopologyEndToEnd, FirstTouchVerifiesUnderEveryBackend) {
  // Lazy first-touch mapping must keep every backend functionally correct
  // (run_one aborts on verification failure).
  for (const CohMode mode : kAllBackends) {
    RunSpec spec;
    spec.app = "histo";
    spec.size = SizeClass::kTiny;
    spec.mode = mode;
    spec.topo = "numa2";
    spec.alloc = AllocPolicy::kFirstTouch;
    const SimStats s = run_one(spec);
    EXPECT_GT(s.cycles, 0u) << to_string(mode);
  }
}

TEST(TopologyEndToEnd, AdrOnNumaIsDeterministic) {
  // ADR's multi-socket shrink damper (socket occupancy consult) must keep
  // runs deterministic and the controller active.
  RunSpec spec;
  spec.app = "jacobi";
  spec.size = SizeClass::kTiny;
  spec.mode = CohMode::kRaCCD;
  spec.adr = true;
  spec.topo = "numa2";
  const SimStats a = run_one(spec);
  const SimStats b = run_one(spec);
  EXPECT_EQ(stats_to_text(a), stats_to_text(b));
  EXPECT_GT(a.adr.polls, 0u);
}

TEST(TopologyEndToEnd, SameSpecSameTopologyIsDeterministic) {
  for (const char* topo : {"numa2", "cmesh", "numa4"}) {
    RunSpec spec;
    spec.app = "jacobi";
    spec.size = SizeClass::kTiny;
    spec.mode = CohMode::kRaCCD;
    spec.topo = topo;
    spec.alloc = AllocPolicy::kFirstTouch;
    const SimStats a = run_one(spec);
    const SimStats b = run_one(spec);
    // Every serialized counter must match bit-for-bit across repeated runs.
    EXPECT_EQ(stats_to_text(a), stats_to_text(b)) << topo;
  }
}

}  // namespace
}  // namespace raccd
