// DRAM model tests: row-buffer hit/miss/conflict latencies, page policies,
// FR-FCFS vs FCFS service, queue backpressure, the token grammar, the
// kSimple golden (flat-latency behavior exactly as before the DRAM layer),
// and determinism under the host-parallel executor.
#include <gtest/gtest.h>

#include "fabric_test_util.hpp"

#include "raccd/dram/dram.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/grid.hpp"
#include "raccd/harness/sweep_cache.hpp"

namespace raccd {
namespace {

using testutil::line_in_bank;
using testutil::small_fabric_config;

[[nodiscard]] DramConfig ddr_config() {
  DramConfig cfg;
  cfg.model = DramModel::kDdr;
  return cfg;
}

// Default geometry: 1 channel, 8 banks, 2 KB rows => 32 lines per row;
// bank = (line >> 5) & 7, row = line >> 8.
constexpr LineAddr kRow0Bank0 = 0;
constexpr LineAddr kRow0Bank0Next = 1;
constexpr LineAddr kRow0Bank1 = 32;
constexpr LineAddr kRow1Bank0 = 256;

TEST(DramController, RowEmptyMissPaysActivate) {
  DramController dc(ddr_config());
  const DramOutcome out = dc.read(kRow0Bank0, 0);
  EXPECT_EQ(out.row, DramOutcome::Row::kEmpty);
  EXPECT_TRUE(out.activated);
  EXPECT_FALSE(out.precharged);
  EXPECT_EQ(out.wait, 0u);
  EXPECT_EQ(out.latency, kDramTRcd + kDramTCas + kDramTBurst);
}

TEST(DramController, RowHitPaysColumnAccessOnly) {
  DramController dc(ddr_config());
  (void)dc.read(kRow0Bank0, 0);
  const DramOutcome out = dc.read(kRow0Bank0Next, 500);  // bank idle, row open
  EXPECT_EQ(out.row, DramOutcome::Row::kHit);
  EXPECT_FALSE(out.activated);
  EXPECT_EQ(out.wait, 0u);
  EXPECT_EQ(out.latency, kDramTCas + kDramTBurst);
}

TEST(DramController, RowConflictPrechargesFirst) {
  DramController dc(ddr_config());
  (void)dc.read(kRow0Bank0, 0);
  // Far enough out that tRAS has elapsed and the bank/bus are idle.
  const DramOutcome out = dc.read(kRow1Bank0, 1000);
  EXPECT_EQ(out.row, DramOutcome::Row::kConflict);
  EXPECT_TRUE(out.activated);
  EXPECT_TRUE(out.precharged);
  EXPECT_EQ(out.latency, kDramTRp + kDramTRcd + kDramTCas + kDramTBurst);
}

TEST(DramController, ConflictAgainstYoungRowWaitsOutRas) {
  DramController dc(ddr_config());
  const DramOutcome first = dc.read(kRow0Bank0, 0);
  // Arrive right when the bank frees: the freshly activated row may not
  // precharge before tRAS, so the conflict waits past plain bank-busy.
  const DramOutcome out = dc.read(kRow1Bank0, first.latency);
  EXPECT_EQ(out.row, DramOutcome::Row::kConflict);
  EXPECT_GT(out.latency, kDramTRp + kDramTRcd + kDramTCas + kDramTBurst);
}

TEST(DramController, ClosedPagePolicyNeverRowHits) {
  DramConfig cfg = ddr_config();
  cfg.page = PagePolicy::kClosed;
  DramController dc(cfg);
  Cycle t = 0;
  for (int i = 0; i < 8; ++i) {
    const DramOutcome out = dc.read(kRow0Bank0 + i, t);  // same row each time
    EXPECT_EQ(out.row, DramOutcome::Row::kEmpty) << i;
    EXPECT_TRUE(out.activated);
    EXPECT_TRUE(out.precharged);  // auto-precharge after every access
    t += 1000;
  }
}

TEST(DramController, FrFcfsLetsARowHitBypassTheQueue) {
  // A slow conflict inflates the channel's in-order issue point and keeps
  // the bus busy; a row hit to another bank then arrives. FR-FCFS serves it
  // immediately; FCFS makes it wait behind the conflict's issue order.
  const auto run = [](DramSched sched) {
    DramConfig cfg = ddr_config();
    cfg.sched = sched;
    DramController dc(cfg);
    (void)dc.read(kRow0Bank1, 0);   // open bank 1 row 0
    (void)dc.read(kRow0Bank0, 0);   // open bank 0 row 0
    (void)dc.read(kRow1Bank0, 10);  // conflict: issues late, holds the bus
    return dc.read(kRow0Bank1 + 1, 20);  // row hit on bank 1
  };
  const DramOutcome frfcfs = run(DramSched::kFrFcfs);
  const DramOutcome fcfs = run(DramSched::kFcfs);
  EXPECT_EQ(frfcfs.row, DramOutcome::Row::kHit);
  EXPECT_EQ(fcfs.row, DramOutcome::Row::kHit);
  EXPECT_LT(frfcfs.wait, fcfs.wait);
  EXPECT_LT(frfcfs.total(), fcfs.total());
}

TEST(DramController, FullWriteQueueBackpressuresWritesAndReads) {
  DramConfig cfg = ddr_config();
  cfg.write_queue_slots = 2;
  DramController dc(cfg);
  const DramOutcome w1 = dc.write(kRow0Bank0, 0);
  const DramOutcome w2 = dc.write(kRow0Bank1, 0);
  EXPECT_EQ(w1.wait + w2.wait, 0u);
  // Third write finds both slots occupied: it drains the earliest completer.
  const DramOutcome w3 = dc.write(kRow0Bank0 + 64, 0);
  EXPECT_GT(w3.wait, 0u);
  // A read against a full write queue stalls the same way.
  DramController dc2(cfg);
  (void)dc2.write(kRow0Bank0, 0);
  (void)dc2.write(kRow0Bank1, 0);
  const DramOutcome r = dc2.read(kRow0Bank0 + 64, 0);
  EXPECT_GT(r.wait, 0u);
}

TEST(DramController, ChannelsServeIndependently) {
  DramConfig cfg = ddr_config();
  cfg.channels = 2;
  DramController dc(cfg);
  (void)dc.read(0, 0);  // channel 0
  // Channel 1 is untouched: an access at t=0 starts immediately even though
  // channel 0's bank and bus are busy.
  const DramOutcome out = dc.read(1, 0);
  EXPECT_EQ(out.wait, 0u);
  EXPECT_EQ(out.row, DramOutcome::Row::kEmpty);
}

TEST(DramParse, TokenGrammar) {
  DramConfig cfg;
  EXPECT_EQ(parse_dram("simple", cfg), "");
  EXPECT_EQ(cfg.model, DramModel::kSimple);
  EXPECT_EQ(parse_dram("ddr", cfg), "");
  EXPECT_EQ(cfg.model, DramModel::kDdr);
  EXPECT_EQ(cfg.page, PagePolicy::kOpen);
  EXPECT_EQ(cfg.sched, DramSched::kFrFcfs);
  EXPECT_EQ(parse_dram("ddr-closed-fcfs-ch2-bk16", cfg), "");
  EXPECT_EQ(cfg.page, PagePolicy::kClosed);
  EXPECT_EQ(cfg.sched, DramSched::kFcfs);
  EXPECT_EQ(cfg.channels, 2u);
  EXPECT_EQ(cfg.banks, 16u);
  EXPECT_NE(parse_dram("", cfg), "");
  EXPECT_NE(parse_dram("dimm", cfg), "");
  EXPECT_NE(parse_dram("ddr-fast", cfg), "");
  EXPECT_NE(parse_dram("ddr-ch3", cfg), "");   // not a power of two
  EXPECT_NE(parse_dram("ddr-ch", cfg), "");    // no digits
  EXPECT_NE(parse_dram("ddr-ch4294967297", cfg), "");  // would wrap uint32 to 1
  EXPECT_NE(parse_dram("simple-ch2", cfg), "");
}

// -- kSimple golden: the flat-latency path is exactly the pre-DRAM one -------

TEST(DramSimpleGolden, ColdMissLatencyMatchesTheLegacyFormula) {
  const FabricConfig cfg = small_fabric_config();  // dram defaults to kSimple
  Fabric fabric(cfg, nullptr);
  const CoreId c = 0;
  const LineAddr l = line_in_bank(1, 3);
  const BankId b = 1;
  const Mesh& mesh = fabric.mesh();
  const std::uint32_t mc = mesh.nearest_memory_controller(b);
  // Pre-DRAM cold coherent miss: request to home, parallel dir+LLC tag
  // lookup, flat kMemCycles fetch between the controller legs, data back.
  const Cycle expected = kL1HitCycles + mesh.latency(c, b, MsgClass::kRequest) +
                         std::max(kDirCycles, kLlcCycles) +
                         mesh.latency(b, mc, MsgClass::kRequest) + kMemCycles +
                         mesh.latency(mc, b, MsgClass::kResponseData) +
                         mesh.latency(b, c, MsgClass::kResponseData);
  const AccessOutcome out = fabric.access(c, l, false, false, 0);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_FALSE(out.llc_hit);
  EXPECT_EQ(out.latency, expected);
  // The flat model never touches the DRAM counters...
  EXPECT_EQ(fabric.stats().dram_row_hits + fabric.stats().dram_row_misses +
                fabric.stats().dram_row_conflicts,
            0u);
  EXPECT_EQ(fabric.stats().dram_queue_wait_cycles, 0u);
  // ...and memory energy stays the flat per-access number.
  EXPECT_DOUBLE_EQ(fabric.stats().e_mem_pj, kMemAccessPj);
}

TEST(DramSimpleGolden, DefaultSpecKeyAndConfigAreUnchanged) {
  RunSpec spec;
  spec.app = "jacobi";
  spec.size = SizeClass::kSmall;
  spec.mode = CohMode::kFullCoh;
  // The exact legacy key (also pinned in test_grid): no dram token appears.
  EXPECT_EQ(spec.key(), "jacobi-small-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5");
  EXPECT_EQ(config_for(spec).fabric.dram.model, DramModel::kSimple);
  spec.dram = "ddr-closed";
  EXPECT_EQ(spec.key(),
            "jacobi-small-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5-dram=ddr-closed");
  const SimConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.fabric.dram.model, DramModel::kDdr);
  EXPECT_EQ(cfg.fabric.dram.page, PagePolicy::kClosed);
}

// -- End-to-end behavior under the executor ----------------------------------

[[nodiscard]] RunSpec tiny_spec(CohMode mode, std::string dram) {
  RunSpec s;
  s.app = "jacobi";
  s.size = SizeClass::kTiny;
  s.mode = mode;
  s.dram = std::move(dram);
  return s;
}

TEST(DramEndToEnd, DdrChangesTimingAndOpenPageRowHits) {
  const SimStats simple = run_one(tiny_spec(CohMode::kRaCCD, "simple"));
  const SimStats open = run_one(tiny_spec(CohMode::kRaCCD, "ddr"));
  const SimStats closed = run_one(tiny_spec(CohMode::kRaCCD, "ddr-closed"));
  // The detailed model actually engages...
  EXPECT_NE(open.cycles, simple.cycles);
  EXPECT_GT(open.fabric.dram_row_hits + open.fabric.dram_row_misses +
                open.fabric.dram_row_conflicts,
            0u);
  EXPECT_EQ(simple.fabric.dram_row_hits, 0u);
  // ...open page sees row-buffer locality, closed page cannot by definition.
  EXPECT_GT(open.fabric.dram_row_hits, 0u);
  EXPECT_EQ(closed.fabric.dram_row_hits, 0u);
  EXPECT_GT(closed.fabric.dram_row_misses, 0u);
  // The per-op energy split replaces the flat per-access energy.
  EXPECT_GT(open.fabric.e_mem_act_pj, 0.0);
  const double split = open.fabric.e_mem_act_pj + open.fabric.e_mem_rd_pj +
                       open.fabric.e_mem_wr_pj + open.fabric.e_mem_pre_pj;
  EXPECT_NEAR(open.fabric.e_mem_pj, split, 1e-6 * split);
}

TEST(DramEndToEnd, WritebackDeliveryIsAccountedNotDropped) {
  // A 1:256 directory under FullCoh forces entry evictions, whose dirty LLC
  // drops write back to memory — exercising the posted write path.
  RunSpec ddr = tiny_spec(CohMode::kFullCoh, "ddr");
  ddr.dir_ratio = 256;
  RunSpec simple = tiny_spec(CohMode::kFullCoh, "simple");
  simple.dir_ratio = 256;
  const SimStats d = run_one(ddr);
  const SimStats s = run_one(simple);
  ASSERT_GT(s.fabric.mem_writes, 0u);
  // kDdr accounts the NoC delivery leg + write-queue wait; kSimple stays
  // byte-identical to the pre-DRAM stats (zero, matching legacy caches).
  EXPECT_GT(d.fabric.mem_wb_wait_cycles, 0u);
  EXPECT_EQ(s.fabric.mem_wb_wait_cycles, 0u);
  EXPECT_GT(d.fabric.e_mem_wr_pj, 0.0);
}

TEST(DramEndToEnd, DeterministicUnderTheParallelExecutor) {
  std::vector<RunSpec> specs;
  for (const char* dram : {"ddr", "ddr-closed", "ddr-fcfs-ch2"}) {
    specs.push_back(tiny_spec(CohMode::kFullCoh, dram));
    specs.push_back(tiny_spec(CohMode::kRaCCD, dram));
    specs.push_back(tiny_spec(CohMode::kRaCCD, dram));  // duplicate: dedup copy
  }
  RunOptions opts;
  opts.jobs = 4;
  opts.use_cache = false;
  const std::vector<SimStats> a = run_all(specs, opts);
  const std::vector<SimStats> b = run_all(specs, opts);
  ASSERT_EQ(a.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stats_to_text(a[i]), stats_to_text(b[i])) << specs[i].key();
  }
  // The duplicated spec is bit-identical to its twin within one batch too.
  EXPECT_EQ(stats_to_text(a[1]), stats_to_text(a[2]));
}

}  // namespace
}  // namespace raccd
