// The task-based runtime system frontend: task creation with dependence
// analysis, readiness tracking, and scheduling (paper §II-C/III-B).
// Execution timing is driven by sim::Machine; this class owns the
// programming-model state only, so it is unit-testable in isolation.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "raccd/common/types.hpp"
#include "raccd/runtime/dep_registry.hpp"
#include "raccd/runtime/scheduler.hpp"
#include "raccd/runtime/tdg.hpp"

namespace raccd {

// Runtime-system cycle costs, charged by the machine.
inline constexpr Cycle kTaskCreateCycles = 120;    ///< per task, on the creating thread
inline constexpr Cycle kDepAnalysisCycles = 40;    ///< per dependence at creation
inline constexpr Cycle kScheduleCycles = 150;      ///< scheduling phase per task (paper Fig. 3)
inline constexpr Cycle kWakeupPerEdgeCycles = 30;  ///< wake-up phase per resolved edge

struct RuntimeStats {
  std::uint64_t tasks_created = 0;
  std::uint64_t deps_registered = 0;
  std::uint64_t edges = 0;
  std::uint64_t wakeups = 0;  ///< successor edges resolved at task completion
};

class Runtime {
 public:
  explicit Runtime(SchedPolicy policy = SchedPolicy::kFifo, std::uint32_t cores = 16)
      : sched_(policy, cores) {}

  /// Create a task, derive its dependence edges, and enqueue it if ready
  /// (creation happens on the main thread, core 0).
  TaskId create_task(TaskDesc desc);

  /// Scheduler pop for an idle core; false when no task is ready.
  bool pop_ready(CoreId core, TaskId& out);

  /// Mark `t` running (scheduler handed it to a core).
  void start_task(TaskId t);

  /// Complete `t` on `core`: resolves successors, enqueues newly ready
  /// tasks (onto the finishing core's deque under work stealing). Returns
  /// whether any task became ready; `resolved` counts wake-up edges.
  bool finish_task(TaskId t, CoreId core, std::uint32_t& resolved);

  // -- Open-loop releases (service workloads) -------------------------------
  // Tasks with `release > 0` are *release-gated*: when their dependences
  // resolve they park in a (release, id) min-heap instead of entering the
  // scheduler. The Machine anchors releases to the executing taskwait phase
  // (set_release_base) and drains due tasks as its clock passes each release
  // instant (release_up_to), so the gating is exact, not approximate.

  /// Anchor relative release times: absolute release = base + task.release.
  void set_release_base(Cycle base) noexcept { release_base_ = base; }
  [[nodiscard]] Cycle release_base() const noexcept { return release_base_; }

  /// Move every parked task with absolute release <= `now` into the
  /// scheduler (pushed in (release, id) order onto core 0's queue).
  /// Returns the number of tasks released.
  std::uint32_t release_up_to(Cycle now);

  /// Earliest pending absolute release; false when nothing is parked.
  [[nodiscard]] bool next_release(Cycle& out) const;

  /// Total tasks released so far via release gating (progress reporting).
  [[nodiscard]] std::uint64_t released_count() const noexcept { return released_count_; }

  [[nodiscard]] TaskNode& task(TaskId t) { return tdg_.task(t); }
  [[nodiscard]] const TaskNode& task(TaskId t) const { return tdg_.task(t); }
  [[nodiscard]] bool all_finished() const noexcept { return tdg_.all_finished(); }
  [[nodiscard]] std::size_t task_count() const noexcept { return tdg_.task_count(); }
  [[nodiscard]] const Tdg& tdg() const noexcept { return tdg_; }
  [[nodiscard]] const RuntimeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Scheduler& scheduler() const noexcept { return sched_; }
  [[nodiscard]] std::size_t ready_count() const noexcept { return sched_.size(); }

 private:
  /// True when `t` must park in the release heap rather than be scheduled.
  [[nodiscard]] bool gated(const TaskNode& n) const noexcept {
    return n.release > 0 && release_base_ + n.release > released_up_to_;
  }

  Tdg tdg_;
  DepRegistry deps_;
  Scheduler sched_;
  RuntimeStats stats_;
  std::vector<TaskId> scratch_preds_;
  std::vector<TaskId> scratch_ready_;

  /// Dep-resolved tasks awaiting their release instant, keyed by absolute-
  /// release-order (ties broken by creation id for determinism).
  using ReleaseEntry = std::pair<Cycle, TaskId>;
  std::priority_queue<ReleaseEntry, std::vector<ReleaseEntry>, std::greater<ReleaseEntry>>
      pending_releases_;
  Cycle release_base_ = 0;
  Cycle released_up_to_ = 0;  ///< high-water mark of release_up_to()
  std::uint64_t released_count_ = 0;
};

}  // namespace raccd
