#include "raccd/sim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"
#include "raccd/metrics/histogram.hpp"
#include "raccd/obs/trace_sink.hpp"

namespace raccd {
namespace {

/// The topology's per-socket memory ranges must describe the same frame
/// space PhysMemory allocates from — derive them from one place.
[[nodiscard]] SimConfig finalized(SimConfig cfg) {
  cfg.fabric.topo.phys_frames = cfg.phys_mb * (1024 * 1024 / kPageBytes);
  return cfg;
}

/// The memoized class of page `vpage` in `memo` (sorted by page), from
/// `classify()` the first time the task asks for it.
template <class Classify>
bool memo_page_class(std::vector<std::pair<PageNum, bool>>& memo, PageNum vpage,
                     Classify&& classify) {
  auto it = std::lower_bound(
      memo.begin(), memo.end(), vpage,
      [](const std::pair<PageNum, bool>& e, PageNum p) { return e.first < p; });
  if (it == memo.end() || it->first != vpage) it = memo.insert(it, {vpage, classify().nc});
  return it->second;
}

/// A clock no batch of pure hits reaches: run the whole window.
constexpr Cycle kNever = ~Cycle{0};

// -- sampled-run extrapolation helpers ---------------------------------------

[[nodiscard]] std::uint64_t scale_u(std::uint64_t v, double s) noexcept {
  return static_cast<std::uint64_t>(std::llround(static_cast<double>(v) * s));
}
[[nodiscard]] double scale_u(double v, double s) noexcept { return v * s; }

/// Measured-bucket counters scaled up to run totals: every event counter and
/// dynamic-energy term extrapolates uniformly by the access ratio.
template <FieldList Stats>
[[nodiscard]] Stats scaled(Stats o, double s) noexcept {
  for_each_leaf([s](auto& v) { v = scale_u(v, s); }, o);
  return o;
}

/// The fabric's measured counters scaled to run totals. Each miss counter is
/// derived as scaled lookups minus scaled hits instead of being rounded on
/// its own, so hits + misses = lookups survives the scale-up exactly.
[[nodiscard]] FabricStats scaled_fabric(const FabricStats& f, double s) noexcept {
  FabricStats o = scaled(f, s);
  o.l1_misses = o.l1_accesses - o.l1_hits;
  o.llc_misses = o.llc_lookups - o.llc_hits;
  o.dir_misses = o.dir_lookups - o.dir_hits;
  return o;
}

/// 95% half-width of the mean of `r` (zero below two samples).
[[nodiscard]] double ci95_half_width(const std::vector<double>& r) noexcept {
  if (r.size() < 2) return 0.0;
  double mean = 0.0;
  for (const double v : r) mean += v;
  mean /= static_cast<double>(r.size());
  double ss = 0.0;
  for (const double v : r) {
    const double d = v - mean;
    ss += d * d;
  }
  const double sd = std::sqrt(ss / static_cast<double>(r.size() - 1));
  return 1.96 * sd / std::sqrt(static_cast<double>(r.size()));
}

}  // namespace

Machine::Machine(const SimConfig& cfg)
    : cfg_(finalized(cfg)),
      checker_(/*strict=*/true),
      fabric_(cfg_.fabric, cfg_.enable_checker ? &checker_ : nullptr),
      adr_(fabric_, cfg_.adr),
      mem_(cfg_.fabric.topo.phys_frames, cfg_.alloc_policy, cfg_.seed,
           cfg_.fabric.topo.sockets),
      rt_(cfg_.sched, cfg_.fabric.cores) {
  for (std::uint32_t c = 0; c < cfg_.fabric.cores; ++c) {
    tlbs_.emplace_back(cfg_.tlb_entries);
  }
  cores_.resize(cfg_.fabric.cores);
  sampling_on_ = cfg_.sampling.enabled;
  if (sampling_on_) {
    ffwd_near_tasks_ = 2ULL * cfg_.fabric.cores;
    // Timed cooldown after each measured window: roughly one task per core,
    // clamped so the detailed block still fits in the period.
    const std::uint64_t block = cfg_.sampling.warmup + cfg_.sampling.window;
    if (cfg_.sampling.period > block) {
      cooldown_tasks_ =
          std::min<std::uint64_t>(cfg_.fabric.cores, cfg_.sampling.period - block);
    }
  }
  backend_ = make_backend(BackendContext{cfg_, fabric_, mem_, tlbs_});
  // Each guard below is an observer of the global order a pure hit would
  // move: the series snapshots counters at global instants, the checker's
  // golden versions follow store order, and ADR polls the directory's dirty
  // mask after every record at its clock.
  run_ahead_ = cfg_.series.interval == 0 && !cfg_.enable_checker && !cfg_.adr.enabled;
  keys_.assign(cores_.size(), kAsleep);
  if (run_ahead_) {
    for (CoreState& cs : cores_) cs.ahead.resize(kLookahead);
    fabric_.set_remote_touch_hook({this, &Machine::on_remote_touch});
  }
  if (cfg_.series.interval > 0) {
    sampler_ = std::make_unique<StatSampler>(
        cfg_.series, [this](Cycle at, SimStats& s) { snapshot_stats(at, s); });
  }
}

void Machine::set_obs_trace(obs::TraceSink* sink) {
  obs_ = sink;
  fabric_.set_obs_trace(sink);
  backend_->set_obs_trace(sink);
  if (sink == nullptr) return;
  sink->set_process_name(obs::kPidCores, "cores");
  sink->set_process_name(obs::kPidRuntime, "runtime");
  sink->set_process_name(obs::kPidCoherence, "coherence");
  sink->set_process_name(obs::kPidDram, "dram");
  sink->set_process_name(obs::kPidService, "service");
  sink->set_process_name(obs::kPidNoc, "noc");
  for (CoreId c = 0; c < cfg_.fabric.cores; ++c) {
    sink->set_thread_name(obs::kPidCores, c, strprintf("core %u", c));
  }
  sink->set_thread_name(obs::kPidRuntime, 0, "scheduler");
  sink->set_thread_name(obs::kPidNoc, 0, "mesh");
  obs_ids_.taskwait = sink->intern("taskwait");
  obs_ids_.idle_gap = sink->intern("idle_gap");
  obs_ids_.release = sink->intern("release");
  obs_ids_.flush = sink->intern("nc_flush");
  obs_ids_.queueing = sink->intern("queueing");
  obs_ids_.service = sink->intern("service");
  obs_ids_.respond = sink->intern("respond");
  obs_ids_.noc_flits = sink->intern("noc_flits");
  obs_ids_.lines = sink->intern("lines");
  obs_ids_.wbs = sink->intern("wbs");
  obs_ids_.released = sink->intern("released");
  obs_ids_.until = sink->intern("until");
  obs_ids_.task = sink->intern("task");
}

TaskId Machine::spawn(TaskDesc desc) {
  const Cycle cost = kTaskCreateCycles + kDepAnalysisCycles * desc.deps.size();
  main_clock_ += cost;
  create_cycles_ += cost;
  return rt_.create_task(std::move(desc));
}

CoreId Machine::next_core() const noexcept {
  std::uint64_t best = kAsleep;
  for (const std::uint64_t k : keys_) best = std::min(best, k);
  return best == kAsleep ? kNoCore
                         : static_cast<CoreId>(best & ((1U << kKeyCoreBits) - 1));
}

void Machine::wake_sleepers(Cycle at) {
  for (CoreId c = 0; c < cores_.size(); ++c) {
    CoreState& cs = cores_[c];
    if (cs.sleeping) {
      cs.sleeping = false;
      cs.clock = std::max(cs.clock, at);
      keys_[c] = key_of(cs.clock, c);
    }
  }
}

void Machine::taskwait() {
  const Cycle phase_start = main_clock_;
  const bool tr = obs_ != nullptr && obs_->wants(obs::TraceCat::kTask);
  if (tr) {
    obs_->begin(obs::TraceCat::kTask, obs::kPidRuntime, 0, obs_ids_.taskwait,
                phase_start);
  }
  // Open-loop releases are anchored to this phase: a task with release r
  // becomes schedulable at absolute cycle phase_start + r, exactly.
  rt_.set_release_base(phase_start);
  for (CoreId c = 0; c < cores_.size(); ++c) {
    cores_[c].clock = phase_start;
    cores_[c].sleeping = false;
    keys_[c] = key_of(phase_start, c);
  }
  while (!rt_.all_finished()) {
    const CoreId c = next_core();
    if (c == kNoCore) {
      // Every core is asleep with nothing runnable. Under open-loop
      // arrivals this is an idle gap, not a deadlock: advance the clock to
      // the next release instant and resume there instead of spinning.
      Cycle nr = 0;
      RACCD_ASSERT(rt_.next_release(nr),
                   "deadlock: all cores asleep with unfinished tasks");
      rt_.release_up_to(nr);
      if (release_hook_) release_hook_(rt_.released_count());
      if (tr) {
        obs_->instant(obs::TraceCat::kTask, obs::kPidRuntime, 0,
                      obs_ids_.idle_gap, nr, obs_ids_.released,
                      rt_.released_count());
      }
      wake_sleepers(nr);
      continue;
    }
    // Drain releases due at or before the next ordered event: sleeping
    // cores wake *at the release instant* (possibly earlier than that
    // event), so re-pick the global minimum afterwards. One release batch
    // per iteration keeps each wake-up at its own exact instant. Pure hits
    // never read the runtime, so only ordered events need the check.
    Cycle due = 0;
    if (rt_.next_release(due) && due <= keys_[c] >> kKeyCoreBits) {
      rt_.release_up_to(due);
      if (release_hook_) release_hook_(rt_.released_count());
      if (tr) {
        obs_->instant(obs::TraceCat::kTask, obs::kPidRuntime, 0,
                      obs_ids_.release, due, obs_ids_.released,
                      rt_.released_count());
      }
      wake_sleepers(due);
      continue;
    }
    CoreState& cs = cores_[c];
    run_pure_hits(c, kNever);
    // The stepped core holds the globally minimal clock, so sample times
    // are non-decreasing — the series is a consistent global timeline.
    if (sampler_) sampler_->observe(cs.clock);
    step_core_ = c;
    step_clock_ = cs.clock;
    step(c);
    step_core_ = kNoCore;
    ++work_.ordered_events;
    if (cs.sleeping) {
      keys_[c] = kAsleep;
    } else {
      look_ahead(c);
    }
  }
  Cycle end = phase_start;
  for (const auto& cs : cores_) end = std::max(end, cs.clock);
  main_clock_ = end;
  if (tr) {
    obs_->end(obs::TraceCat::kTask, obs::kPidRuntime, 0, obs_ids_.taskwait, end);
  }
}

void Machine::look_ahead(CoreId c) {
  CoreState& cs = cores_[c];
  cs.ahead_base = cs.cursor;
  std::size_t i = cs.cursor;
  Cycle at = cs.clock;
  // No window when lookahead is off, between tasks, or in fast-forward:
  // a fast-forwarded task replays in one step, at that step's key.
  if (run_ahead_ && cs.current != kNoTask && cs.phase != SimPhase::kFfwd) {
    // A pure hit: a TLB hit (no walk, no first-touch mapping), an L1 hit,
    // and a read or a store to an E, M or NC line (a store to S upgrades).
    // It costs kL1HitCycles per access, repeats included, like a hitting
    // replay_record; executing earlier pure hits changes none of these tests.
    const auto& recs = cs.trace.records();
    Tlb& tlb = tlbs_[c];
    L1Cache& l1 = fabric_.l1(c);
    const std::size_t limit = std::min(recs.size(), i + kLookahead);
    PageNum vpage = ~PageNum{0}, pframe = 0;
    std::uint32_t slot = Tlb::kNoSlot;
    for (; i < limit; ++i) {
      const AccessRecord& r = recs[i];
      if (page_of(r.vaddr) != vpage) {
        slot = tlb.peek(page_of(r.vaddr));
        if (slot == Tlb::kNoSlot) break;
        vpage = page_of(r.vaddr);
        pframe = tlb.frame(slot);
      }
      const std::uint32_t l =
          l1.slot_of(line_of((pframe << kPageShift) | page_offset(r.vaddr)));
      if (l == L1Cache::kNoSlot || (r.is_write != 0 && l1.at(l).coh == Mesi::kShared)) break;
      cs.ahead[i - cs.ahead_base] = PureHit{l, slot};
      at += r.compute_gap + static_cast<Cycle>(r.repeat) * kL1HitCycles;
    }
    work_.peeked += i - cs.ahead_base + (i < limit ? 1 : 0);
  }
  cs.ahead_end = i;
  RACCD_DEBUG_ASSERT(at < (Cycle{1} << (64 - kKeyCoreBits)), "clock overflows the key");
  keys_[c] = key_of(at, c);
}

void Machine::run_pure_hits(CoreId c, Cycle below) {
  CoreState& cs = cores_[c];
  std::size_t i = cs.cursor;
  if (i == cs.ahead_end) return;
  const auto& recs = cs.trace.records();
  Tlb& tlb = tlbs_[c];
  L1Cache& l1 = fabric_.l1(c);
  // replay_record's work for a pure hit, minus the probes look_ahead did:
  // no walk, no classification, no overlap scaling (hits never scale) and
  // no ADR poll (ADR disables lookahead). The hits are counted once for the
  // whole batch; see count_l1_repeat_hits.
  Cycle clock = cs.clock;
  std::uint64_t hits = 0;
  for (; i < cs.ahead_end && clock < below; ++i) {
    const AccessRecord& r = recs[i];
    const PureHit& h = cs.ahead[i - cs.ahead_base];
    tlb.hit(h.tlb_slot);
    l1.touch(h.l1_slot);
    if (r.is_write != 0) fabric_.store_pure_hit(c, h.l1_slot);
    hits += r.repeat;
    clock += r.compute_gap + static_cast<Cycle>(r.repeat) * kL1HitCycles;
  }
  work_.pure_hits += i - cs.cursor;
  cs.cursor = i;
  cs.busy_cycles += clock - cs.clock;
  cs.clock = clock;
  accesses_replayed_ += hits;
  fabric_.count_pure_hits(hits, cs.phase);
  if (sampling_on_ && cs.phase == SimPhase::kMeasured) {
    // replay_record's measured-window attribution; a hit moves no shared
    // counter, so its deltas are zero.
    detailed_stall_accesses_ += hits;
    measured_accesses_ += hits;
    if (windows_.size() <= cs.window_id) windows_.resize(cs.window_id + 1);
    windows_[cs.window_id].accesses += hits;
    windows_[cs.window_id].stall_cycles += hits * kL1HitCycles;
  }
}

void Machine::on_remote_touch(void* self, CoreId t, LineAddr first, std::uint32_t lines) {
  static_cast<Machine*>(self)->catch_up(t, first, lines);
}

void Machine::catch_up(CoreId t, LineAddr first, std::uint32_t lines) {
  CoreState& ts = cores_[t];
  // The stepping core ran its pending hits before its step.
  if (t == step_core_ || ts.cursor == ts.ahead_end) return;
  ++work_.catch_ups;
  run_pure_hits(t, before_step(t));
  // The touch may change what t's remaining records on these lines do, so
  // t's next ordered event becomes its first of them (if it comes sooner).
  // Its key still follows (N, r): a remote touch only shortens a window.
  const auto& recs = ts.trace.records();
  const L1Cache& l1 = fabric_.l1(t);
  Cycle at = ts.clock;
  for (std::size_t i = ts.cursor; i < ts.ahead_end; ++i) {
    if (l1.line(ts.ahead[i - ts.ahead_base].l1_slot) - first < lines) {
      ts.ahead_end = i;
      keys_[t] = key_of(at, t);
      return;
    }
    at += recs[i].compute_gap + static_cast<Cycle>(recs[i].repeat) * kL1HitCycles;
  }
}

void Machine::step(CoreId c) {
  CoreState& cs = cores_[c];
  if (cs.current == kNoTask) {
    TaskId t = kNoTask;
    if (!rt_.pop_ready(c, t)) {
      cs.sleeping = true;  // woken by the next task completion
      return;
    }
    cs.clock += kScheduleCycles;
    schedule_cycles_ += kScheduleCycles;
    start_task(c, t);
    return;
  }
  if (sampling_on_) {
    sync_phase(cs.phase);
    if (cs.phase == SimPhase::kFfwd && cs.cursor < cs.trace.records().size()) {
      replay_task_ffwd(c);
      return;
    }
  }
  if (cs.cursor < cs.trace.records().size()) {
    replay_record(c);
    return;
  }
  finish_task(c);
}

SimPhase Machine::phase_for(std::uint64_t k) const noexcept {
  const SamplingConfig& sc = cfg_.sampling;
  // window >= period: the whole period is measured — an all-detailed
  // sampled run, bit-exact with detailed simulation (tested).
  if (sc.window >= sc.period) return SimPhase::kMeasured;
  const std::uint64_t kmod = k % sc.period;
  // Rotate the detailed block (warmup prefix + measured window) through the
  // period one slot per window: a fixed slot would alias with any periodic
  // task structure (e.g. alternating compute/copy task classes) and sample
  // only one class, biasing the extrapolation. The block never wraps a
  // period boundary, so warmup still immediately precedes its window.
  // The block ends with a timed cooldown (phase kWarmup, so it is replayed in
  // full but never attributed): without it the window's tail would interleave
  // with fast-forwarded tasks whose accesses occupy no bank or link, and the
  // last measured tasks would see fading contention — on queue-dominated
  // workloads that clips 10%+ off every contention-sensitive metric.
  const std::uint64_t detailed = sc.warmup + sc.window + cooldown_tasks_;
  const std::uint64_t slots = sc.period > detailed ? sc.period - detailed + 1 : 1;
  const std::uint64_t start = (k / sc.period) % slots;
  if (kmod < start) return SimPhase::kFfwd;
  const std::uint64_t rel = kmod - start;
  if (rel < sc.warmup) return SimPhase::kWarmup;
  if (rel < sc.warmup + sc.window) return SimPhase::kMeasured;
  if (rel < detailed) return SimPhase::kWarmup;
  return SimPhase::kFfwd;
}

bool Machine::ffwd_is_near(std::uint64_t k) const noexcept {
  const SamplingConfig& sc = cfg_.sampling;
  const std::uint64_t detailed = sc.warmup + sc.window + cooldown_tasks_;
  const std::uint64_t slots = sc.period > detailed ? sc.period - detailed + 1 : 1;
  const std::uint64_t kmod = k % sc.period;
  const std::uint64_t start = (k / sc.period) % slots;
  // Task starts until the next detailed block (this period's if it is still
  // ahead, else the next period's rotated slot).
  std::uint64_t dist;
  if (kmod < start) {
    dist = start - kmod;
  } else {
    dist = (sc.period - kmod) + ((k / sc.period + 1) % slots);
  }
  return dist <= ffwd_near_tasks_;
}

void Machine::sync_phase(SimPhase p) {
  if (fabric_.phase() == p) return;
  fabric_.set_phase(p);
  if (phase_hook_) phase_hook_(p, task_seq_ / cfg_.sampling.period);
}

void Machine::replay_task_ffwd(CoreId c) {
  CoreState& cs = cores_[c];
  const auto& recs = cs.trace.records();
  std::uint64_t n_acc = 0;
  Cycle gaps = 0;
  double n_miss = 0.0;

  if (cs.ffwd_far && cs.cursor == 0) {
    // Far tier: the task's accesses never touch the fabric — totals come
    // from the trace header, the hit/miss split from the detailed-replay
    // miss rate, and only page-grained classification still advances
    // (PT ownership transitions are sticky and must observe every
    // accessor; the page walk also keeps the TLB warm). Tag, directory and
    // DRAM warming is the near tier's and the warmup prefix's job.
    if (cs.classify) {
      const TaskNode& node = rt_.task(cs.current);
      for (const DepSpec& d : node.deps) {
        if (d.size == 0) continue;
        for (PageNum vp = page_of(d.addr); vp <= page_of(d.addr + d.size - 1);
             ++vp) {
          (void)memo_page_class(cs.class_memo, vp, [&] {
            const auto tr = tlbs_[c].access(vp, mem_.page_table());
            return cs.classify(c, vp << kPageShift, tr.pframe << kPageShift, tr.pframe,
                               cs.clock);
          });
        }
      }
    }
    n_acc = cs.trace.total_accesses();
    gaps = cs.trace.total_compute();
    // The miss rate reads the measured accesses as of this step: count every
    // pending pure hit that precedes it first.
    for (CoreId t = 0; t < cores_.size(); ++t) run_pure_hits(t, before_step(t));
    const double miss_rate =
        detailed_stall_accesses_ == 0
            ? 0.0
            : static_cast<double>(detailed_misses_) /
                  static_cast<double>(detailed_stall_accesses_);
    n_miss = miss_rate * static_cast<double>(n_acc);
    // The task leaves no L1 footprint, so the mode teardown in finish_task
    // will find nothing to flush — charge the measured per-access teardown
    // rate here instead (clock-only, like the real teardown).
    if (detailed_end_accesses_ > 0) {
      cs.clock += static_cast<Cycle>(
          std::llround(static_cast<double>(detailed_end_cycles_) /
                       static_cast<double>(detailed_end_accesses_) *
                       static_cast<double>(n_acc)));
    }
    cs.cursor = recs.size();
  } else {
    for (; cs.cursor < recs.size(); ++cs.cursor) {
      const AccessRecord& r = recs[cs.cursor];
      gaps += r.compute_gap;
      n_acc += r.repeat;

      const PageNum vpage = page_of(r.vaddr);
      if (mem_.lazy_mapping() && !mem_.page_table().mapped(vpage)) {
        mem_.map_on_touch(vpage, fabric_.topology().socket_of(c));
      }
      const auto tr = tlbs_[c].access(vpage, mem_.page_table());
      const PAddr paddr = (tr.pframe << kPageShift) | page_offset(r.vaddr);
      const LineAddr line = line_of(paddr);

      bool nc = false;
      const std::uint32_t resident = fabric_.l1(c).slot_of(line);
      if (cs.classify && resident == L1Cache::kNoSlot) {
        // Batch classification: each page goes through the ClassifierView
        // once per task; later accesses reuse the memoized verdict.
        nc = memo_page_class(cs.class_memo, vpage, [&] {
          return cs.classify(c, r.vaddr, paddr, tr.pframe, cs.clock);
        });
      }
      const AccessOutcome out =
          resident != L1Cache::kNoSlot
              ? fabric_.access_hit(c, resident, r.is_write != 0, cs.clock)
              : fabric_.access_miss(c, line, r.is_write != 0, nc, cs.clock);
      if (!out.l1_hit) n_miss += 1.0;
      if (r.repeat > 1) fabric_.count_l1_repeat_hits(r.repeat - 1);
    }
  }
  accesses_replayed_ += n_acc;
  ffwd_accesses_ += n_acc;
  // Time dilation: compute gaps are exact; the near tier also knows the
  // exact L1 hit/miss split (its tags are warm) while the far tier uses the
  // detailed-replay miss rate. Only the mean penalty per miss is estimated,
  // from the *measured* replay so far — measured windows span the whole
  // machine, so the mean includes queueing/contention, while warmup replay
  // right after a fast-forward stretch is deliberately cold and would bias
  // it. The prior before any detailed miss is one LLC round (kLlcCycles).
  const double miss_extra =
      detailed_misses_ == 0 ? static_cast<double>(kLlcCycles)
                            : static_cast<double>(detailed_miss_extra_) /
                                  static_cast<double>(detailed_misses_);
  const Cycle stall =
      n_acc * kL1HitCycles +
      static_cast<Cycle>(std::llround(miss_extra * n_miss));
  cs.clock += gaps + stall;
  cs.busy_cycles += gaps + stall;
  adr_.poll(cs.clock);
  finish_task(c);
}

void Machine::start_task(CoreId c, TaskId t) {
  CoreState& cs = cores_[c];
  rt_.start_task(t);
  cs.current = t;
  cs.cursor = 0;
  if (sampling_on_) {
    // Phase schedule off the global task-start counter: deterministic under
    // any scheduler interleaving, and task-aligned so state-warming setup
    // (registration, first-touch) runs under the task's own phase.
    cs.phase = phase_for(task_seq_);
    cs.window_id = task_seq_ / cfg_.sampling.period;
    ++task_seq_;
    switch (cs.phase) {
      case SimPhase::kMeasured: ++measured_tasks_; break;
      case SimPhase::kWarmup: ++warmup_tasks_; break;
      case SimPhase::kFfwd:
        ++ffwd_tasks_;
        cs.class_memo.clear();
        cs.ffwd_far = !ffwd_is_near(task_seq_ - 1);
        break;
    }
    sync_phase(cs.phase);
  }
  TaskNode& node = rt_.task(t);
  if (obs_ != nullptr && obs_->wants(obs::TraceCat::kTask)) {
    obs_->begin(obs::TraceCat::kTask, obs::kPidCores, c,
                node.name.empty() ? obs_ids_.task : obs_->intern(node.name),
                cs.clock);
  }

  // Per-request latency: the chain head carries the release instant; the
  // first task to start (the head, by dep order) opens the service window.
  if (node.request != kNoRequest) {
    if (requests_.size() <= node.request) requests_.resize(node.request + 1);
    RequestLat& rq = requests_[node.request];
    if (node.release > 0) rq.release = rt_.release_base() + node.release;
    if (!rq.started || cs.clock < rq.start) rq.start = cs.clock;
    rq.started = true;
  }

  // First-touch placement: the scheduled core's socket claims the frames of
  // this task's dependence pages before anything translates them (RaCCD's
  // raccd_register below walks these pages through the TLB).
  if (mem_.lazy_mapping()) {
    const std::uint32_t socket = fabric_.topology().socket_of(c);
    for (const DepSpec& d : node.deps) {
      if (d.size == 0) continue;
      for (PageNum vp = page_of(d.addr); vp <= page_of(d.addr + d.size - 1); ++vp) {
        mem_.map_on_touch(vp, socket);
      }
    }
  }

  // Mode-specific setup (e.g. RaCCD's raccd_register per dependence), and
  // the per-access classification hook for this task, resolved once.
  const Cycle setup = backend_->on_task_start(c, node, cs.clock);
  cs.clock += setup;
  register_cycles_ += setup;
  cs.classify = backend_->classifier();

  // Functional execution records the access trace; replay charges timing.
  cs.trace.clear();
  TaskContext ctx(mem_, cs.trace);
  RACCD_ASSERT(node.body != nullptr, "task without a body");
  node.body(ctx);
}

void Machine::replay_record(CoreId c) {
  CoreState& cs = cores_[c];
  const AccessRecord& r = cs.trace.records()[cs.cursor++];
  ++work_.ordered_records;
  cs.clock += r.compute_gap;
  cs.busy_cycles += r.compute_gap;
  accesses_replayed_ += r.repeat;

  // Address translation (VIPT-style: only walks cost extra time).
  const PageNum vpage = page_of(r.vaddr);
  if (mem_.lazy_mapping() && !mem_.page_table().mapped(vpage)) {
    // Accesses outside the declared dependence ranges first-touch here.
    mem_.map_on_touch(vpage, fabric_.topology().socket_of(c));
  }
  const auto tr = tlbs_[c].access(vpage, mem_.page_table());
  Cycle extra = 0;
  if (!tr.hit) extra += kTlbWalkCycles;
  const PAddr paddr = (tr.pframe << kPageShift) | page_offset(r.vaddr);
  const LineAddr line = line_of(paddr);

  // Classify the request on an L1 miss through the backend's cached view
  // (NCRT lookup / PT page class / always-NC; null view = always coherent).
  // Classification never fills c's L1, so the probe stays valid below.
  bool nc = false;
  const std::uint32_t resident = fabric_.l1(c).slot_of(line);
  if (resident == L1Cache::kNoSlot && cs.classify) {
    const AccessClass ac = cs.classify(c, r.vaddr, paddr, tr.pframe, cs.clock + extra);
    extra += ac.extra_cycles;
    nc = ac.nc;
  }

  // Per-window attribution (sampled runs): counter deltas around this
  // access land in the core's own window bucket, so concurrently running
  // tasks from neighboring windows never pollute each other's rates.
  std::uint64_t d0 = 0, h0 = 0, f0 = 0, fh0 = 0, rh0 = 0, rm0 = 0, rc0 = 0;
  const bool attribute = sampling_on_ && cs.phase == SimPhase::kMeasured;
  if (attribute) {
    const FabricStats& f = fabric_.stats();
    const NocStats& n = fabric_.mesh().stats();
    d0 = f.dir_accesses;
    h0 = f.llc_hits;
    rh0 = f.dram_row_hits;
    rm0 = f.dram_row_misses;
    rc0 = f.dram_row_conflicts;
    f0 = n.total_flits();
    fh0 = n.total_flit_hops();
  }

  const AccessOutcome out =
      resident != L1Cache::kNoSlot
          ? fabric_.access_hit(c, resident, r.is_write != 0, cs.clock + extra)
          : fabric_.access_miss(c, line, r.is_write != 0, nc, cs.clock + extra);
  Cycle stall = out.latency;
  if (!out.l1_hit) {
    stall = kL1HitCycles + static_cast<Cycle>(static_cast<double>(out.latency - kL1HitCycles) /
                                              kMissOverlap);
  }
  Cycle total = extra + stall;
  if (r.repeat > 1) {
    fabric_.count_l1_repeat_hits(r.repeat - 1);
    total += static_cast<Cycle>(r.repeat - 1) * kL1HitCycles;
  }
  cs.clock += total;
  cs.busy_cycles += total;
  if (sampling_on_) {
    // The dilation estimator learns only from *measured* replay: warmup
    // tasks right after a fast-forward stretch are deliberately cold (that
    // is the bias warmup absorbs), and their compulsory-miss storms would
    // inflate both the miss rate and the mean miss penalty.
    if (attribute) {
      detailed_stall_accesses_ += r.repeat;
      if (!out.l1_hit) {
        ++detailed_misses_;
        detailed_miss_extra_ += extra + stall > kL1HitCycles ? extra + stall - kL1HitCycles : 0;
      }
      if (windows_.size() <= cs.window_id) windows_.resize(cs.window_id + 1);
      WindowBucket& w = windows_[cs.window_id];
      measured_accesses_ += r.repeat;
      w.accesses += r.repeat;
      w.stall_cycles += total;
      const FabricStats& f = fabric_.stats();
      const NocStats& n = fabric_.mesh().stats();
      w.dir_accesses += f.dir_accesses - d0;
      w.llc_hits += f.llc_hits - h0;
      w.dram_row_hits += f.dram_row_hits - rh0;
      w.dram_row_misses += f.dram_row_misses - rm0;
      w.dram_row_conflicts += f.dram_row_conflicts - rc0;
      w.noc_flits += n.total_flits() - f0;
      w.noc_flit_hops += n.total_flit_hops() - fh0;
    }
  }
  adr_.poll(cs.clock);
}

void Machine::finish_task(CoreId c) {
  CoreState& cs = cores_[c];
  if (trace_sink_) trace_sink_(rt_.task(cs.current), cs.trace);
  const Cycle trailing = cs.trace.trailing_compute();
  cs.clock += trailing;
  cs.busy_cycles += trailing;

  // Mode-specific teardown (RaCCD: NCRT clear + NC-line flush; WbNC:
  // whole-L1 writeback flush). Costs block the finishing core.
  const TaskEndOutcome teardown = backend_->on_task_end(c, cs.clock);
  cs.clock += teardown.cycles;
  invalidate_cycles_ += teardown.cycles;
  flushed_nc_lines_ += teardown.flushed_lines;
  flushed_nc_wbs_ += teardown.flushed_wbs;
  if (obs_ != nullptr && obs_->wants(obs::TraceCat::kCoh) &&
      (teardown.flushed_lines > 0 || teardown.flushed_wbs > 0)) {
    // Invalidation burst: the mode's end-of-task NC flush / writeback storm.
    obs_->instant(obs::TraceCat::kCoh, obs::kPidCoherence, c, obs_ids_.flush,
                  cs.clock, obs_ids_.lines, teardown.flushed_lines,
                  obs_ids_.wbs, teardown.flushed_wbs);
  }
  if (sampling_on_ && cs.phase == SimPhase::kMeasured) {
    detailed_end_cycles_ += teardown.cycles;
    detailed_end_accesses_ += cs.trace.total_accesses();
  }

  adr_.poll_all(cs.clock);

  if (sampling_on_ && cs.phase == SimPhase::kMeasured) {
    // Occupancy is a level, not a rate: sample the instantaneous directory
    // occupancy at each measured task's end and CI the per-window means.
    if (windows_.size() <= cs.window_id) windows_.resize(cs.window_id + 1);
    WindowBucket& w = windows_[cs.window_id];
    w.occ_sum += dir_occupancy();
    ++w.occ_samples;
  }

  // Per-request latency: the chain's last task to finish closes the
  // request. Recorded after teardown (the mode's end-of-task flush is part
  // of serving the request) but before the wake-up edges below.
  {
    const TaskNode& node = rt_.task(cs.current);
    if (node.request != kNoRequest && node.request < requests_.size()) {
      RequestLat& rq = requests_[node.request];
      if (cs.clock > rq.end) rq.end = cs.clock;
    }
  }

  // Wake-up phase (paper Fig. 3): notify dependent tasks.
  std::uint32_t resolved = 0;
  const TaskId finished = cs.current;
  const bool new_ready = rt_.finish_task(cs.current, c, resolved);
  const Cycle wake_cost = kWakeupPerEdgeCycles * resolved;
  cs.clock += wake_cost;
  wakeup_cycles_ += wake_cost;
  cs.current = kNoTask;
  if (obs_ != nullptr) {
    if (obs_->wants(obs::TraceCat::kTask)) {
      const TaskNode& node = rt_.task(finished);
      obs_->end(obs::TraceCat::kTask, obs::kPidCores, c,
                node.name.empty() ? obs_ids_.task : obs_->intern(node.name),
                cs.clock);
    }
    if (obs_->wants(obs::TraceCat::kNoc)) {
      // Cumulative flit counter, sampled at every task end: a step curve of
      // total mesh traffic over simulated time.
      obs_->counter(obs::TraceCat::kNoc, obs::kPidNoc, 0, obs_ids_.noc_flits,
                    cs.clock, fabric_.mesh().stats().total_flits());
    }
  }
  if (new_ready) wake_sleepers(cs.clock);
}

double Machine::dir_occupancy() const noexcept {
  double occ = 0.0;
  for (BankId b = 0; b < cfg_.fabric.cores; ++b) {
    const auto& d = fabric_.dir(b);
    occ += static_cast<double>(d.valid_entries()) /
           (static_cast<double>(d.total_sets()) * d.ways());
  }
  return occ / cfg_.fabric.cores;
}

void Machine::snapshot_stats(Cycle at, SimStats& s) const {
  // Fills a default-constructed SimStats with the machine's state as of
  // `at`. Counters are exact; the occupancy fields are *instantaneous*
  // (valid entries vs capacity, powered sets vs total right now) — the
  // quantity a Fig. 8-style occupancy-over-time trace plots. collect()
  // overwrites them with the run's time-weighted averages.
  s.mode = cfg_.mode;
  s.dir_ratio = cfg_.dir_ratio();
  s.adr_enabled = cfg_.adr.enabled;
  s.cycles = at;
  for (const auto& cs : cores_) s.busy_cycles += cs.busy_cycles;
  s.core_utilization = at == 0 ? 0.0
                               : static_cast<double>(s.busy_cycles) /
                                     (static_cast<double>(at) * cores_.size());
  s.fabric = fabric_.stats();
  s.noc = fabric_.mesh().stats();
  backend_->accumulate(s);  // mode-private stats (NCRT, PT classifier)
  for (const auto& tlb : tlbs_) add_fields(s.tlb, tlb.stats());
  s.adr = adr_.stats();
  s.tasks = rt_.stats().tasks_created;
  s.edges = rt_.stats().edges;
  s.accesses_replayed = accesses_replayed_;
  s.create_cycles = create_cycles_;
  s.schedule_cycles = schedule_cycles_;
  s.wakeup_cycles = wakeup_cycles_;
  s.register_cycles = register_cycles_;
  s.invalidate_cycles = invalidate_cycles_;
  s.flushed_nc_lines = flushed_nc_lines_;
  s.flushed_nc_wbs = flushed_nc_wbs_;
  s.blocks_touched = fabric_.classifier().touched_blocks();
  s.blocks_noncoherent = fabric_.classifier().noncoherent_blocks();
  s.noncoherent_block_fraction = fabric_.classifier().noncoherent_fraction();
  s.avg_dir_occupancy = dir_occupancy();
  double active_sum = 0.0;
  for (BankId b = 0; b < cfg_.fabric.cores; ++b) {
    const auto& d = fabric_.dir(b);
    active_sum += static_cast<double>(d.active_sets()) / d.total_sets();
  }
  s.avg_dir_active_frac = active_sum / cfg_.fabric.cores;
  // Leakage over the powered entry-cycles accumulated so far.
  double leak = 0.0;
  for (BankId b = 0; b < cfg_.fabric.cores; ++b) {
    const double entry_cycles = fabric_.dir(b).active_integral();
    leak += dir_leakage_pj(1, 1) * entry_cycles;
  }
  s.dir_leak_energy_pj = leak;
}

SimStats Machine::collect() {
  RACCD_ASSERT(!collected_, "collect() must be called once");
  RACCD_ASSERT(rt_.all_finished(), "collect() before all tasks finished");
  collected_ = true;
  // Finalize before the last series point so integral-derived metrics
  // (e.g. energy.dir_leak_pj) include the tail window up to main_clock_.
  fabric_.finalize(main_clock_);
  if (sampler_) sampler_->finish(main_clock_);

  SimStats s;
  snapshot_stats(main_clock_, s);
  // End-of-run reports use the time-weighted averages (paper Fig. 8's
  // per-app numbers), not the final instantaneous occupancy.
  s.avg_dir_occupancy = fabric_.avg_dir_occupancy(main_clock_);
  s.avg_dir_active_frac = 0.0;
  if (main_clock_ > 0) {
    double active_sum = 0.0;
    for (BankId b = 0; b < cfg_.fabric.cores; ++b) {
      const auto& d = fabric_.dir(b);
      const double cap = static_cast<double>(d.total_sets()) * d.ways();
      active_sum += d.active_integral() / (static_cast<double>(main_clock_) * cap);
    }
    s.avg_dir_active_frac = active_sum / cfg_.fabric.cores;
  }
  if (sampling_on_) apply_sampling(s);
  // Conservation laws every run must keep, sampled or not.
  RACCD_DEBUG_ASSERT(s.fabric.l1_hits + s.fabric.l1_misses == s.fabric.l1_accesses,
                     "L1 hits + misses != accesses");
  RACCD_DEBUG_ASSERT(s.fabric.llc_hits + s.fabric.llc_misses == s.fabric.llc_lookups,
                     "LLC hits + misses != lookups");
  RACCD_DEBUG_ASSERT(s.fabric.dir_hits + s.fabric.dir_misses == s.fabric.dir_lookups,
                     "directory hits + misses != lookups");
  RACCD_DEBUG_ASSERT(s.busy_cycles <= s.cycles * cores_.size(), "busy cycles exceed cycles");
  RACCD_DEBUG_ASSERT(cfg_.fabric.dram.model == DramModel::kSimple ||
                         std::abs(s.fabric.e_mem_pj -
                                  (s.fabric.e_mem_act_pj + s.fabric.e_mem_rd_pj +
                                   s.fabric.e_mem_wr_pj + s.fabric.e_mem_pre_pj)) <=
                             1e-9 * s.fabric.e_mem_pj,
                     "DRAM energy split does not sum to e_mem_pj");

  // Open-loop service runs: summarize the per-request latency components.
  // Queueing = release -> first task start (scheduling delay under load),
  // service = first start -> last end, end-to-end = release -> last end.
  if (!requests_.empty()) {
    Histogram queueing, service, e2e;
    for (const RequestLat& rq : requests_) {
      if (!rq.started) continue;
      queueing.add(rq.start > rq.release ? rq.start - rq.release : 0);
      service.add(rq.end > rq.start ? rq.end - rq.start : 0);
      e2e.add(rq.end > rq.release ? rq.end - rq.release : 0);
    }
    s.service.requests = e2e.count();
    // Empty distributions summarize to NaN (emitted as JSON null); a service
    // run where no request ever started keeps the all-zero default payload
    // so empty-request stats stay byte-identical with requests == 0 gating.
    if (e2e.count() > 0) {
      s.service.queueing = queueing.summary();
      s.service.service = service.summary();
      s.service.e2e = e2e.summary();
    }
    emit_request_spans();
  }
  return s;
}

void Machine::emit_request_spans() {
  // Post-hoc service lifecycle spans: one track per request id, queueing
  // span [release, start], service span [start, end], respond instant at
  // end. Emitted from the recorded RequestLat table after the run — the
  // hot path never pays for per-request bookkeeping beyond what the
  // latency histograms already need.
  if (obs_ == nullptr || !obs_->wants(obs::TraceCat::kSvc)) return;
  for (std::size_t r = 0; r < requests_.size(); ++r) {
    const RequestLat& rq = requests_[r];
    if (!rq.started) continue;
    const std::uint32_t tid = static_cast<std::uint32_t>(r);
    const Cycle start = std::max(rq.start, rq.release);
    const Cycle end = std::max(rq.end, start);
    obs_->begin(obs::TraceCat::kSvc, obs::kPidService, tid, obs_ids_.queueing,
                rq.release);
    obs_->end(obs::TraceCat::kSvc, obs::kPidService, tid, obs_ids_.queueing,
              start);
    obs_->begin(obs::TraceCat::kSvc, obs::kPidService, tid, obs_ids_.service,
                start);
    obs_->end(obs::TraceCat::kSvc, obs::kPidService, tid, obs_ids_.service, end);
    obs_->instant(obs::TraceCat::kSvc, obs::kPidService, tid, obs_ids_.respond,
                  end);
  }
}

void Machine::apply_sampling(SimStats& s) const {
  SamplingStats& sp = s.sampling;
  sp.active = 1;
  sp.measured_tasks = measured_tasks_;
  sp.warmup_tasks = warmup_tasks_;
  sp.ffwd_tasks = ffwd_tasks_;
  sp.measured_accesses = measured_accesses_;
  sp.ffwd_accesses = ffwd_accesses_;
  for (const WindowBucket& w : windows_) {
    if (w.accesses > 0) ++sp.windows;
  }
  // window >= period degenerates to an all-detailed run: every task is
  // measured, the measured bucket already holds exact totals — leave
  // everything (scale 1, zero CIs). Warmup-phase tasks disqualify the
  // shortcut: their events live outside the measured bucket and must be
  // covered by extrapolation (small periods can be all warmup + cooldown).
  if (ffwd_tasks_ == 0 && warmup_tasks_ == 0) return;
  if (measured_accesses_ == 0) {
    // Degenerate schedule with nothing measured (e.g. fewer tasks than the
    // warmup prefix): report every observed event unscaled rather than zero.
    s.fabric.add(fabric_.warm_stats());
    s.fabric.add(fabric_.ffwd_stats());
    s.noc.add(fabric_.noc_scratch_stats());
  } else {
    const double scale = static_cast<double>(accesses_replayed_) /
                         static_cast<double>(measured_accesses_);
    sp.scale = scale;
    s.fabric = scaled_fabric(fabric_.stats(), scale);
    s.noc = scaled(fabric_.mesh().stats(), scale);

    // Per-window measured rates; their spread prices the extrapolation. CI on
    // a counter total = CI(mean rate) x the extrapolated (unmeasured) access
    // count; level metrics (row-hit rate, occupancy) take CI(mean) directly.
    std::vector<double> r_stall, r_dir, r_llc, r_flits, r_hops, r_rowhit, r_rowrate,
        r_occ;
    for (const WindowBucket& w : windows_) {
      if (w.accesses == 0) continue;
      const double a = static_cast<double>(w.accesses);
      r_stall.push_back(static_cast<double>(w.stall_cycles) / a);
      r_dir.push_back(static_cast<double>(w.dir_accesses) / a);
      r_llc.push_back(static_cast<double>(w.llc_hits) / a);
      r_flits.push_back(static_cast<double>(w.noc_flits) / a);
      r_hops.push_back(static_cast<double>(w.noc_flit_hops) / a);
      r_rowhit.push_back(static_cast<double>(w.dram_row_hits) / a);
      const std::uint64_t rows =
          w.dram_row_hits + w.dram_row_misses + w.dram_row_conflicts;
      if (rows > 0) {
        r_rowrate.push_back(static_cast<double>(w.dram_row_hits) /
                            static_cast<double>(rows));
      }
      if (w.occ_samples > 0) {
        r_occ.push_back(w.occ_sum / static_cast<double>(w.occ_samples));
      }
    }
    const double extrapolated =
        static_cast<double>(accesses_replayed_ - measured_accesses_);
    sp.cycles_ci95 = ci95_half_width(r_stall) * extrapolated;
    sp.dir_accesses_ci95 = ci95_half_width(r_dir) * extrapolated;
    sp.llc_hits_ci95 = ci95_half_width(r_llc) * extrapolated;
    sp.noc_flits_ci95 = ci95_half_width(r_flits) * extrapolated;
    sp.noc_flit_hops_ci95 = ci95_half_width(r_hops) * extrapolated;
    sp.dram_row_hits_ci95 = ci95_half_width(r_rowhit) * extrapolated;
    sp.dram_row_hit_rate_ci95 = ci95_half_width(r_rowrate);
    sp.dir_occupancy_ci95 = ci95_half_width(r_occ);
  }
}

}  // namespace raccd
