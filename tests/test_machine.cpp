// Machine-level integration tests: task execution through the DES loop,
// per-mode request classification, RaCCD register/invalidate hooks, PT
// recovery, and end-to-end functional correctness with the checker on.
#include <gtest/gtest.h>

#include "raccd/apps/registry.hpp"
#include "raccd/coherence/checker.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/sim/machine.hpp"

namespace raccd {
namespace {

SimConfig test_config(CohMode mode) {
  SimConfig cfg = SimConfig::scaled(mode);
  cfg.enable_checker = true;
  return cfg;
}

/// Simple two-phase workload: every block is written by one task and read by
/// a chained successor, across enough data to exercise misses. Readers also
/// read a distant partner region so data provably crosses cores (the
/// temporally-private migration pattern the paper targets).
void run_chain_workload(Machine& m, std::uint32_t ntasks, std::uint32_t bytes_per_task) {
  const VAddr base = m.mem().alloc(static_cast<std::uint64_t>(ntasks) * bytes_per_task,
                                   kLineBytes, "chain");
  for (std::uint32_t t = 0; t < ntasks; ++t) {
    const VAddr region = base + static_cast<VAddr>(t) * bytes_per_task;
    TaskDesc wr;
    wr.name = "w";
    wr.deps = {DepSpec{region, bytes_per_task, DepKind::kOut}};
    wr.body = [region, bytes_per_task, t](TaskContext& ctx) {
      for (std::uint32_t i = 0; i < bytes_per_task; i += 4) {
        ctx.store<std::uint32_t>(region + i, t * 1000 + i);
      }
    };
    m.spawn(std::move(wr));
  }
  for (std::uint32_t t = 0; t < ntasks; ++t) {
    const VAddr region = base + static_cast<VAddr>(t) * bytes_per_task;
    const VAddr partner =
        base + static_cast<VAddr>((t + ntasks / 2) % ntasks) * bytes_per_task;
    TaskDesc rd;
    rd.name = "r";
    rd.deps = {DepSpec{region, bytes_per_task, DepKind::kIn},
               DepSpec{partner, bytes_per_task, DepKind::kIn}};
    rd.body = [region, partner, bytes_per_task, t](TaskContext& ctx) {
      for (std::uint32_t i = 0; i < bytes_per_task; i += 4) {
        const auto v = ctx.load<std::uint32_t>(region + i);
        RACCD_ASSERT(v == t * 1000 + i, "functional data corrupted");
        (void)ctx.load<std::uint32_t>(partner + i);
      }
    };
    m.spawn(std::move(rd));
  }
  m.taskwait();
}

TEST(Machine, ExecutesAllTasksAndAdvancesTime) {
  Machine m(test_config(CohMode::kFullCoh));
  run_chain_workload(m, 32, 4096);
  const SimStats s = m.collect();
  EXPECT_EQ(s.tasks, 64u);
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.fabric.l1_accesses, 0u);
  EXPECT_EQ(s.fabric.nc_reads + s.fabric.nc_writes, 0u);  // FullCoh: nothing NC
}

TEST(Machine, RaccdClassifiesDependenceDataNonCoherent) {
  Machine m(test_config(CohMode::kRaCCD));
  run_chain_workload(m, 32, 4096);
  const SimStats s = m.collect();
  EXPECT_GT(s.fabric.nc_reads + s.fabric.nc_writes, 0u);
  EXPECT_GT(s.ncrt.inserts, 0u);
  EXPECT_EQ(s.ncrt.overflows, 0u);
  EXPECT_GT(s.register_cycles, 0u);
  EXPECT_GT(s.invalidate_cycles, 0u);
  EXPECT_GT(s.flushed_nc_lines, 0u);
  // All task data was dependence-declared: non-coherent fraction must be ~1.
  EXPECT_GT(s.noncoherent_block_fraction, 0.95);
  // And the directory saw far fewer accesses than FullCoh would generate.
  Machine full(test_config(CohMode::kFullCoh));
  run_chain_workload(full, 32, 4096);
  const SimStats fs = full.collect();
  EXPECT_LT(s.fabric.dir_accesses, fs.fabric.dir_accesses / 2);
}

TEST(Machine, PtClassifiesFirstTouchPrivate) {
  Machine m(test_config(CohMode::kPT));
  run_chain_workload(m, 32, 4096);
  const SimStats s = m.collect();
  EXPECT_GT(s.pt.first_touches, 0u);
  EXPECT_GT(s.fabric.nc_reads + s.fabric.nc_writes, 0u);
  // Writer and reader tasks of a region often run on different cores: PT
  // reclassifies those pages shared (the paper's temporal-privacy gap).
  EXPECT_GT(s.pt.transitions, 0u);
  EXPECT_GT(s.tlb.shootdowns, 0u);
}

TEST(Machine, InvariantScanCleanAfterRun) {
  for (const CohMode mode : kAllModes) {
    Machine m(test_config(mode));
    run_chain_workload(m, 16, 2048);
    const auto violations = CoherenceChecker::scan(m.fabric());
    for (const auto& v : violations) ADD_FAILURE() << to_string(mode) << ": " << v;
    (void)m.collect();
  }
}

TEST(Machine, DeterministicAcrossRuns) {
  SimStats a, b;
  {
    Machine m(test_config(CohMode::kRaCCD));
    run_chain_workload(m, 24, 4096);
    a = m.collect();
  }
  {
    Machine m(test_config(CohMode::kRaCCD));
    run_chain_workload(m, 24, 4096);
    b = m.collect();
  }
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.fabric.dir_accesses, b.fabric.dir_accesses);
  EXPECT_EQ(a.noc.total_flit_hops(), b.noc.total_flit_hops());
}

TEST(Machine, ParallelSpeedupOverSerialChain) {
  // 64 independent tasks must finish much faster than a serial chain of the
  // same 64 tasks (dependences force serialization).
  const auto build = [](Machine& m, bool serial) {
    const VAddr buf = m.mem().alloc(64 * 1024, kLineBytes, "buf");
    const VAddr serial_cell = m.mem().alloc(kLineBytes, kLineBytes, "cell");
    for (std::uint32_t t = 0; t < 64; ++t) {
      TaskDesc d;
      d.deps = {DepSpec{buf + t * 1024, 1024, DepKind::kInout}};
      if (serial) d.deps.push_back(DepSpec{serial_cell, kLineBytes, DepKind::kInout});
      d.body = [buf, t](TaskContext& ctx) {
        for (std::uint32_t i = 0; i < 1024; i += 4) {
          ctx.store<std::uint32_t>(buf + t * 1024 + i, i);
        }
        ctx.compute(20000);
      };
      m.spawn(std::move(d));
    }
    m.taskwait();
  };
  Machine par(test_config(CohMode::kFullCoh));
  build(par, false);
  Machine ser(test_config(CohMode::kFullCoh));
  build(ser, true);
  const Cycle par_c = par.collect().cycles;
  const Cycle ser_c = ser.collect().cycles;
  EXPECT_LT(par_c * 4, ser_c);  // at least 4x with 16 cores
}

TEST(Machine, NcrtOverflowFallsBackCoherently) {
  SimConfig cfg = test_config(CohMode::kRaCCD);
  cfg.raccd.ncrt_entries = 1;  // everything beyond one region overflows
  Machine m(cfg);
  const VAddr a = m.mem().alloc(4096, kLineBytes, "a");
  const VAddr b = m.mem().alloc(4096, kLineBytes, "b");
  const VAddr c = m.mem().alloc(4096, kLineBytes, "c");
  TaskDesc t;
  t.deps = {DepSpec{a, 4096, DepKind::kOut}, DepSpec{b, 4096, DepKind::kOut},
            DepSpec{c, 4096, DepKind::kOut}};
  t.body = [a, b, c](TaskContext& ctx) {
    for (std::uint32_t i = 0; i < 4096; i += 64) {
      ctx.store<std::uint32_t>(a + i, i);
      ctx.store<std::uint32_t>(b + i, i);
      ctx.store<std::uint32_t>(c + i, i);
    }
  };
  m.spawn(std::move(t));
  m.taskwait();
  const SimStats s = m.collect();
  EXPECT_GT(s.ncrt.overflows, 0u);
  EXPECT_GT(s.fabric.coh_writes, 0u);  // overflowed regions stay coherent
  EXPECT_GT(s.fabric.nc_writes, 0u);   // the registered region is NC
}

TEST(Machine, TaskwaitPhasesComposable) {
  Machine m(test_config(CohMode::kRaCCD));
  const VAddr buf = m.mem().alloc(kLineBytes, kLineBytes, "x");
  for (int phase = 0; phase < 3; ++phase) {
    TaskDesc t;
    t.deps = {DepSpec{buf, kLineBytes, DepKind::kInout}};
    t.body = [buf](TaskContext& ctx) {
      ctx.store<std::uint32_t>(buf, ctx.load<std::uint32_t>(buf) + 1);
    };
    m.spawn(std::move(t));
    m.taskwait();
  }
  EXPECT_EQ(m.mem().read<std::uint32_t>(buf), 3u);
  const SimStats s = m.collect();
  EXPECT_EQ(s.tasks, 3u);
}

TEST(Machine, WorkStealingSchedulerCorrectAndLocal) {
  SimConfig cfg = test_config(CohMode::kRaCCD);
  cfg.sched = SchedPolicy::kWorkSteal;
  Machine m(cfg);
  run_chain_workload(m, 32, 4096);
  const SimStats s = m.collect();
  EXPECT_EQ(s.tasks, 64u);
  // Work stealing must actually engage: both local pops and steals happen.
  EXPECT_GT(m.runtime().scheduler().stats().local_pops, 0u);
  EXPECT_GT(m.runtime().scheduler().stats().steals, 0u);
  const auto violations = CoherenceChecker::scan(m.fabric());
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(Machine, WorkStealingReducesPtTransitions) {
  // Locality-preserving scheduling keeps successor tasks on the producing
  // core, so fewer pages migrate and PT reclassifies less.
  SimConfig fifo_cfg = test_config(CohMode::kPT);
  Machine fifo_m(fifo_cfg);
  run_chain_workload(fifo_m, 32, 4096);
  SimConfig ws_cfg = test_config(CohMode::kPT);
  ws_cfg.sched = SchedPolicy::kWorkSteal;
  Machine ws_m(ws_cfg);
  run_chain_workload(ws_m, 32, 4096);
  const SimStats fifo_s = fifo_m.collect();
  const SimStats ws_s = ws_m.collect();
  EXPECT_LE(ws_s.pt.transitions, fifo_s.pt.transitions);
}

/// Spawn one single-task request gated at `release` writing `value` to `slot`.
void spawn_request(Machine& m, VAddr slot, Cycle release, std::uint64_t request,
                   std::uint32_t value) {
  TaskDesc t;
  t.name = "req";
  t.release = release;
  t.request = request;
  t.deps = {DepSpec{slot, sizeof(std::uint32_t), DepKind::kOut}};
  t.body = [slot, value](TaskContext& ctx) { ctx.store<std::uint32_t>(slot, value); };
  m.spawn(std::move(t));
}

TEST(Machine, ReleaseGateAdvancesClockAcrossIdleGap) {
  // All cores idle awaiting a future release: the event loop must jump the
  // clock to the release instant (an idle gap, not a deadlock) and the
  // released task must still execute.
  Machine m(test_config(CohMode::kFullCoh));
  const VAddr slot = m.mem().alloc(kLineBytes, kLineBytes, "slot");
  constexpr Cycle kRelease = 50000;
  spawn_request(m, slot, kRelease, /*request=*/0, 7);
  m.taskwait();
  const SimStats s = m.collect();
  EXPECT_GE(s.cycles, kRelease);
  // The gap is skipped exactly, not simulated: total time is the release
  // instant plus a handful of scheduling/execution cycles, nowhere near 2x.
  EXPECT_LT(s.cycles, kRelease + 5000);
  ASSERT_EQ(s.service.requests, 1u);
  // On an otherwise idle machine the only queueing delay is the scheduling
  // cost itself, charged before the task-start instant is recorded.
  const auto sched = static_cast<double>(m.config().timing.schedule_cycles);
  EXPECT_DOUBLE_EQ(s.service.queueing.max, sched);
  EXPECT_DOUBLE_EQ(s.service.queueing.mean, sched);
}

TEST(Machine, ReleasesFireAtExactInstantsAcrossRepeatedGaps) {
  // A sparse schedule forces the idle-gap path repeatedly; every request
  // must start exactly schedule_cycles after its own release instant.
  Machine m(test_config(CohMode::kRaCCD));
  constexpr std::uint64_t kRequests = 8;
  const VAddr base = m.mem().alloc(kRequests * kLineBytes, kLineBytes, "slots");
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    spawn_request(m, base + r * kLineBytes, 10000 * (r + 1), r,
                  static_cast<std::uint32_t>(100 + r));
  }
  m.taskwait();
  const SimStats s = m.collect();
  EXPECT_GE(s.cycles, 10000u * kRequests);
  ASSERT_EQ(s.service.requests, kRequests);
  const auto sched = static_cast<double>(m.config().timing.schedule_cycles);
  EXPECT_DOUBLE_EQ(s.service.queueing.max, sched);
  EXPECT_DOUBLE_EQ(s.service.queueing.mean, sched);
  EXPECT_GT(s.service.e2e.max, 0.0);
}

TEST(Machine, ReleaseDuringBusyBatchStartsOnAnIdleCore) {
  // The event loop must not step a busy core past a pending release, even
  // when that core's pure hits run ahead of it: with 15 of 16 cores idle, a
  // request released mid-batch still starts at exactly its release instant
  // plus the scheduling cost.
  Machine m(test_config(CohMode::kFullCoh));
  constexpr std::uint32_t kWords = 4096;
  const VAddr work = m.mem().alloc(kWords * 4, kLineBytes, "work");
  TaskDesc batch;
  batch.name = "batch";
  batch.deps = {DepSpec{work, kWords * 4, DepKind::kOut}};
  batch.body = [work](TaskContext& ctx) {
    for (std::uint32_t i = 0; i < kWords; ++i) {
      ctx.store<std::uint32_t>(work + i * 4, i);
    }
  };
  m.spawn(std::move(batch));
  const VAddr slot = m.mem().alloc(kLineBytes, kLineBytes, "slot");
  spawn_request(m, slot, /*release=*/2000, /*request=*/0, 9);
  m.taskwait();
  const SimStats s = m.collect();
  ASSERT_EQ(s.service.requests, 1u);
  const auto sched = static_cast<double>(m.config().timing.schedule_cycles);
  EXPECT_DOUBLE_EQ(s.service.queueing.max, sched);
}

TEST(Machine, ReleasedWorkloadIsDeterministic) {
  // Same released schedule, two machines: identical cycle counts and
  // latency summaries (the open-loop path adds no nondeterminism).
  SimStats runs[2];
  for (SimStats& out : runs) {
    Machine m(test_config(CohMode::kRaCCD));
    const VAddr base = m.mem().alloc(16 * kLineBytes, kLineBytes, "slots");
    for (std::uint64_t r = 0; r < 16; ++r) {
      spawn_request(m, base + r * kLineBytes, 500 * (r + 1), r,
                    static_cast<std::uint32_t>(r));
    }
    m.taskwait();
    out = m.collect();
  }
  EXPECT_EQ(runs[0].cycles, runs[1].cycles);
  EXPECT_EQ(runs[0].service.requests, runs[1].service.requests);
  EXPECT_DOUBLE_EQ(runs[0].service.e2e.p99, runs[1].service.e2e.p99);
  EXPECT_DOUBLE_EQ(runs[0].service.queueing.mean, runs[1].service.queueing.mean);
}

TEST(Machine, FragmentedAllocationStillCorrect) {
  SimConfig cfg = test_config(CohMode::kRaCCD);
  cfg.alloc_policy = AllocPolicy::kFragmented;
  Machine m(cfg);
  run_chain_workload(m, 16, 8192);
  const SimStats s = m.collect();
  // Fragmented frames defeat range collapsing: more NCRT inserts than with
  // contiguous allocation (one per page run), possibly overflowing.
  EXPECT_GT(s.ncrt.inserts, 16u);
}

// Laws that bind the counters of any unsampled run, checked on every
// registered workload at tiny under every backend and both memory models:
// each cache level's hits and misses partition its demand lookups, no core
// is busy longer than the run, and the DDR model's per-operation energies
// sum to the memory total.
TEST(ConservationLaws, HoldOnEveryRegisteredWorkload) {
  // Unsampled runs, and sampled 8/2 runs, whose counters are extrapolated
  // from the measured windows. Open-loop service workloads reject sampling.
  const auto& registry = WorkloadRegistry::instance();
  for (const std::string& workload : registry.names()) {
    for (const CohMode mode : kAllBackends) {
      for (const char* dram : {"simple", "ddr"}) {
        for (const char* sampling : {"", "8/2"}) {
          if (*sampling != '\0' && registry.find(workload)->family == "service") continue;
          RunSpec spec;
          spec.app = workload;
          spec.size = SizeClass::kTiny;
          spec.mode = mode;
          spec.dram = dram;
          spec.sampling = sampling;
          SCOPED_TRACE(spec.key());
          const SimStats s = run_one(spec);
          const FabricStats& f = s.fabric;
          EXPECT_GT(f.l1_accesses, 0u);
          EXPECT_EQ(f.l1_hits + f.l1_misses, f.l1_accesses);
          EXPECT_EQ(f.llc_hits + f.llc_misses, f.llc_lookups);
          EXPECT_EQ(f.dir_hits + f.dir_misses, f.dir_lookups);
          EXPECT_LE(s.busy_cycles, s.cycles * config_for(spec).fabric.cores);
          if (spec.dram == "ddr") {
            const double split =
                f.e_mem_act_pj + f.e_mem_rd_pj + f.e_mem_wr_pj + f.e_mem_pre_pj;
            EXPECT_GT(f.e_mem_pj, 0.0);
            EXPECT_NEAR(f.e_mem_pj, split, 1e-9 * f.e_mem_pj);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace raccd
