// The simulated machine: cores + TLBs + coherence fabric + runtime system,
// advanced by a deterministic discrete-event loop, with all coherence-mode
// policy delegated to a pluggable CoherenceBackend (src/raccd/modes/).
//
// Execution model (paper §II-C, Fig. 3): application code runs on the main
// thread creating tasks (spawn), paying creation/dependence-analysis costs;
// taskwait() is the global synchronisation point where all cores execute the
// created tasks. Each scheduled task body runs functionally once, recording
// its access trace, which is replayed access-by-access through the timing
// model: the loop always advances the core with the lowest local clock, so
// coherence transactions interleave in a deterministic global order. Records
// that only touch their own core's state (pure hits) run in batches outside
// that order, with the same result (DESIGN.md, "Conservative lookahead").
//
// Mode policy lives entirely behind the backend seam: the backend's
// on_task_start/on_task_end hooks bracket every task (paper Fig. 3 for
// RaCCD's register/invalidate), and per-access non-coherence classification
// goes through a ClassifierView resolved once per task — the replay loop
// never branches on CohMode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "raccd/coherence/checker.hpp"
#include "raccd/coherence/fabric.hpp"
#include "raccd/core/adr.hpp"
#include "raccd/mem/sim_memory.hpp"
#include "raccd/metrics/series.hpp"
#include "raccd/modes/coherence_backend.hpp"
#include "raccd/obs/profiler.hpp"
#include "raccd/runtime/runtime.hpp"
#include "raccd/sim/config.hpp"
#include "raccd/sim/stats.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {

namespace obs {
class TraceSink;
}

/// OoO miss overlap: the detailed 4-wide cores of the paper hide part of
/// each miss behind independent work; the core-perceived stall is
/// l1_hit + (latency - l1_hit) / kMissOverlap (DESIGN.md substitution #1).
inline constexpr double kMissOverlap = 3.0;

class Machine {
 public:
  explicit Machine(const SimConfig& cfg);
  // The fabric's remote-touch hook, the backend and the series sampler hold
  // this machine's address.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // -- Application-facing API ---------------------------------------------------
  [[nodiscard]] SimMemory& mem() noexcept { return mem_; }
  /// Create a task (main thread pays creation + dependence analysis).
  TaskId spawn(TaskDesc desc);
  /// Global synchronisation point: execute all pending tasks to completion.
  void taskwait();
  /// Finalize and collect statistics (call once, after the last taskwait).
  [[nodiscard]] SimStats collect();

  // -- Introspection --------------------------------------------------------------
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const Tlb& tlb(CoreId c) const noexcept { return tlbs_[c]; }
  [[nodiscard]] Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] CoherenceBackend& backend() noexcept { return *backend_; }
  [[nodiscard]] AdrController& adr() noexcept { return adr_; }
  [[nodiscard]] Cycle now() const noexcept { return main_clock_; }
  [[nodiscard]] CoherenceChecker* checker() noexcept {
    return cfg_.enable_checker ? &checker_ : nullptr;
  }
  /// Whether the event loop runs pure hits outside the global order
  /// (conservative lookahead). Fixed at construction; never changes stats.
  [[nodiscard]] bool runs_ahead() const noexcept { return run_ahead_; }
  /// What the event loop did so far, counted (obs::EngineWork).
  [[nodiscard]] const obs::EngineWork& engine_work() const noexcept { return work_; }

  /// Observer invoked as each task finishes, with the task's node (deps,
  /// name) and its recorded access trace — the hook trace capture
  /// (`apps/trace_capture.hpp`) uses to serialize whole workloads.
  using TraceSink = std::function<void(const TaskNode&, const AccessTrace&)>;
  void set_trace_sink(TraceSink sink) { trace_sink_ = std::move(sink); }

  /// Attach a simulated-time event trace (obs/trace_sink.hpp); nullptr
  /// detaches. Wires the fabric (DRAM/NoC/coherence events) and the mode
  /// backend (register/flip events) to the same sink and names the tracks.
  /// Recording is pure observation: attaching a sink never changes stats.
  void set_obs_trace(obs::TraceSink* sink);

  /// Phase-resolved metric series (cfg.series.interval > 0); nullptr when
  /// sampling is disabled. Final sample lands when collect() runs.
  [[nodiscard]] const Series* series() const noexcept {
    return sampler_ ? &sampler_->series() : nullptr;
  }

  /// Progress hook for sampled runs: invoked on every ffwd/detailed phase
  /// switch with the new phase and the number of sampling periods started.
  /// Never fires when sampling is disabled.
  using PhaseHook = std::function<void(SimPhase, std::uint64_t)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Progress hook for open-loop service runs: invoked each time the event
  /// loop releases a batch of gated tasks, with the total released so far.
  /// Never fires for batch workloads (no release-gated tasks).
  using ReleaseHook = std::function<void(std::uint64_t)>;
  void set_release_hook(ReleaseHook hook) { release_hook_ = std::move(hook); }

 private:
  /// A pure hit found by look_ahead: where it translates and what it hits.
  struct PureHit {
    std::uint32_t l1_slot = 0;
    std::uint32_t tlb_slot = 0;
  };

  struct CoreState {
    Cycle clock = 0;
    bool sleeping = false;
    TaskId current = kNoTask;
    std::size_t cursor = 0;
    AccessTrace trace;
    Cycle busy_cycles = 0;
    /// Backend classification hook, resolved once per task (devirtualized).
    ClassifierView classify{};
    /// Sampled simulation: phase assigned to the current task and its
    /// period group (window) for per-window measured-rate attribution.
    SimPhase phase = SimPhase::kMeasured;
    std::uint64_t window_id = 0;
    /// Fast-forward tier: far tasks (no detailed block within
    /// ffwd_near_tasks_ starts) skip per-access tag warming entirely.
    bool ffwd_far = false;
    /// Fast-forward batch classification: each page resolved through the
    /// ClassifierView once per task (sorted by vpage, binary-searched).
    std::vector<std::pair<PageNum, bool>> class_memo;
    /// Lookahead window: records [cursor, ahead_end) are pure hits, pending;
    /// ahead[i - ahead_base] holds record i's TLB and L1 slots. The core's
    /// next ordered event is record ahead_end, or the task's end.
    std::size_t ahead_base = 0;
    std::size_t ahead_end = 0;
    std::vector<PureHit> ahead;
  };

  /// Per-request latency record: TaskNode::request groups a request's task
  /// chain; release comes from the chain head's gated release instant,
  /// start/end are the min task start / max task end across the chain.
  struct RequestLat {
    Cycle release = 0;
    Cycle start = 0;
    Cycle end = 0;
    bool started = false;
  };

  /// One sampling period's measured-window deltas: every counter here is
  /// accumulated as a before/after difference around the measured tasks'
  /// fabric accesses, so concurrent tasks from neighboring windows never
  /// contaminate each other's rates.
  struct WindowBucket {
    std::uint64_t accesses = 0;      ///< replayed accesses (incl. repeats)
    std::uint64_t stall_cycles = 0;  ///< translation + classification + memory
    std::uint64_t dir_accesses = 0, llc_hits = 0;
    std::uint64_t noc_flits = 0, noc_flit_hops = 0;
    std::uint64_t dram_row_hits = 0, dram_row_misses = 0, dram_row_conflicts = 0;
    double occ_sum = 0.0;  ///< instantaneous dir occupancy at task ends
    std::uint64_t occ_samples = 0;
  };

  /// The awake core whose next ordered event has the lowest (clock, id)
  /// key (kNoCore when every core sleeps).
  [[nodiscard]] CoreId next_core() const noexcept;
  /// Advance core c by one step (fetch a task, replay one record, or finish).
  void step(CoreId c);
  /// Find core c's pending pure hits and the key of its next ordered event
  /// (at most kLookahead records ahead; none when lookahead is off).
  void look_ahead(CoreId c);
  /// Run core c's pending pure hits while its clock is below `below`.
  void run_pure_hits(CoreId c, Cycle below);
  /// Fabric::RemoteTouchHook: bring core `t` up to the stepping core's key
  /// before another core's event touches its lines [first, first + lines),
  /// then end t's window before its first record on those lines.
  static void on_remote_touch(void* self, CoreId t, LineAddr first, std::uint32_t lines);
  void catch_up(CoreId t, LineAddr first, std::uint32_t lines);
  [[nodiscard]] static constexpr std::uint64_t key_of(Cycle at, CoreId c) noexcept {
    return at << kKeyCoreBits | c;
  }
  /// In the global order, core t's pending hits whose (clock, t) precedes
  /// the key (N, r) of the step in progress ran before it: those below this
  /// clock. The rest run after it.
  [[nodiscard]] Cycle before_step(CoreId t) const noexcept {
    return step_clock_ + (t < step_core_ ? 1 : 0);
  }
  void start_task(CoreId c, TaskId t);
  void replay_record(CoreId c);
  void finish_task(CoreId c);
  void wake_sleepers(Cycle at);
  /// Sampled simulation (cfg_.sampling): phase of the k-th started task.
  [[nodiscard]] SimPhase phase_for(std::uint64_t k) const noexcept;
  /// For a kFfwd task: true when the next detailed block starts within
  /// ffwd_near_tasks_ task starts — near tasks replay every access through
  /// the fabric (full tag/TLB/row-buffer warming) so measured windows open
  /// on representative state; far tasks only advance classification and the
  /// clock, making long fast-forward stretches nearly free.
  [[nodiscard]] bool ffwd_is_near(std::uint64_t k) const noexcept;
  /// Flip the fabric to `p` iff it differs (and fire the phase hook).
  void sync_phase(SimPhase p);
  /// Fast-forward a whole task in one DES step: replay every remaining
  /// record functionally (state + stats, no timing), then advance the core
  /// clock by the compute gaps plus the running mean measured stall per
  /// access, and finish the task.
  void replay_task_ffwd(CoreId c);
  /// Scale the measured buckets up to run totals, fill SimStats::sampling
  /// (incl. per-metric 95% CIs from window-to-window rate variation).
  void apply_sampling(SimStats& s) const;
  /// Live stats snapshot for the series sampler: counters as-of-now,
  /// occupancy fields *instantaneous* (valid entries vs capacity right now)
  /// rather than the time-averaged integrals collect() reports.
  void snapshot_stats(Cycle at, SimStats& s) const;
  /// Instantaneous directory occupancy: valid entries over capacity,
  /// averaged across banks.
  [[nodiscard]] double dir_occupancy() const noexcept;

  SimConfig cfg_;
  CoherenceChecker checker_;
  Fabric fabric_;
  AdrController adr_;
  SimMemory mem_;
  Runtime rt_;
  std::vector<Tlb> tlbs_;
  std::vector<CoreState> cores_;
  Cycle main_clock_ = 0;

  /// The global order: keys_[c] packs (clock of core c's next ordered
  /// event, c), so the lowest key steps next and ties break on the lower
  /// core id; kAsleep for sleeping cores. Ordered events are the ones other
  /// cores can observe (misses, upgrades, TLB misses, task starts and ends).
  static constexpr unsigned kKeyCoreBits = 6;  // cores <= 64
  static constexpr std::uint64_t kAsleep = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys_;
  /// Records a lookahead window may span: bounds the work one look_ahead
  /// does, and the run a remote touch has to search.
  static constexpr std::size_t kLookahead = 64;
  /// Lookahead is on; decided once, in the constructor.
  bool run_ahead_ = false;
  /// Key of the step in progress (kNoCore between steps): remote touches
  /// catch their target up to it.
  CoreId step_core_ = kNoCore;
  Cycle step_clock_ = 0;
  obs::EngineWork work_;

  // accumulated runtime-cost stats
  Cycle create_cycles_ = 0;
  Cycle schedule_cycles_ = 0;
  Cycle wakeup_cycles_ = 0;
  Cycle register_cycles_ = 0;
  Cycle invalidate_cycles_ = 0;
  std::uint64_t flushed_nc_lines_ = 0;
  std::uint64_t flushed_nc_wbs_ = 0;
  std::uint64_t accesses_replayed_ = 0;
  bool collected_ = false;

  // -- sampled simulation (cfg_.sampling; all idle when sampling_on_ is false)
  bool sampling_on_ = false;
  /// Functional-warming horizon: ffwd tasks this close (in task starts) to
  /// the next detailed block replay with full tag warming ("near" tier);
  /// the rest are "far" and skip per-access work. Two tasks per core: the
  /// warmup prefix rebuilds the small L1s, so the near tier only has to
  /// re-image the larger shared state (LLC, directory, DRAM row buffers)
  /// from each core's most recent tasks.
  std::uint64_t ffwd_near_tasks_ = 0;
  /// Timed cooldown appended to each detailed block (~one task per core,
  /// counted as warmup): keeps the measured window's tail contended by real
  /// traffic instead of fast-forwarded neighbors that occupy no resources.
  std::uint64_t cooldown_tasks_ = 0;
  std::uint64_t task_seq_ = 0;  ///< global task-start counter (phase schedule)
  std::uint64_t measured_tasks_ = 0, warmup_tasks_ = 0, ffwd_tasks_ = 0;
  std::uint64_t measured_accesses_ = 0, ffwd_accesses_ = 0;
  /// Dilation estimator: accesses replayed in measured windows, the far
  /// tier's miss-rate denominator.
  std::uint64_t detailed_stall_accesses_ = 0;
  /// Miss-cost split: fast-forward knows each access's true L1 hit/miss from
  /// the warm tags, so only the *penalty per miss* is estimated — the
  /// hit/miss mix (the dominant variance source) is exact per task.
  std::uint64_t detailed_miss_extra_ = 0, detailed_misses_ = 0;
  /// End-of-task teardown estimator: mode teardown (RaCCD NC-line flush,
  /// WbNC writeback flush) costs cycles proportional to the task's cached
  /// footprint — far-tier tasks leave no L1 footprint, so their teardown
  /// would be silently free and fine-grained task graphs would lose a
  /// per-task overhead that detailed runs pay. Charged per access at the
  /// measured-phase rate.
  std::uint64_t detailed_end_cycles_ = 0, detailed_end_accesses_ = 0;
  std::vector<WindowBucket> windows_;  ///< indexed by period group
  PhaseHook phase_hook_;

  // -- open-loop service runs (empty for batch workloads)
  std::vector<RequestLat> requests_;  ///< indexed by TaskNode::request
  ReleaseHook release_hook_;

  TraceSink trace_sink_;
  std::unique_ptr<StatSampler> sampler_;  ///< non-null iff series enabled

  // -- simulated-time event tracing (null = off; pure observation)
  obs::TraceSink* obs_ = nullptr;
  /// Interned ids for the fixed event names (valid iff obs_ != nullptr).
  struct ObsIds {
    std::uint16_t taskwait = 0, idle_gap = 0, release = 0, flush = 0,
                  queueing = 0, service = 0, respond = 0, noc_flits = 0,
                  lines = 0, wbs = 0, released = 0, until = 0, task = 0;
  } obs_ids_{};
  /// Emit the per-request lifecycle spans (collect() tail, post-hoc).
  void emit_request_spans();

  /// Constructed last (it references fabric/mem/tlbs), destroyed first.
  std::unique_ptr<CoherenceBackend> backend_;
};

}  // namespace raccd
