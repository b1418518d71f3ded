// The coherence-mode backend seam between the simulated machine and the
// mode-specific policy (paper §II-B/III: FullCoh vs PT vs RaCCD, plus the
// BDDT-SCC-style writeback-NC baseline).
//
// Machine owns the discrete-event loop and the mode-agnostic hardware (L1s,
// fabric, TLBs, ADR); a CoherenceBackend owns everything a mode adds on top:
//
//  * on_task_start — per-task setup before the body runs (RaCCD issues one
//    raccd_register per dependence here, paper Fig. 3).
//  * classifier()  — per-access non-coherence classification, consulted on
//    every L1 miss. The hot path is devirtualized: Machine resolves the
//    backend's classify function ONCE per task into a ClassifierView (a raw
//    function pointer + backend pointer) and calls through that, never
//    through the vtable. A backend with no per-access policy (FullCoh)
//    returns a null view and the miss path skips the call entirely.
//  * on_task_end   — per-task teardown (RaCCD: raccd_invalidate + NC-line
//    flush; WbNC: whole-L1 writeback flush).
//  * accumulate    — export mode-private statistics into SimStats.
//
// Backends are created by make_backend() from SimConfig::mode; adding a new
// coherence scenario means adding one backend under src/raccd/modes/ and one
// registry row in coherence_backend.cpp — no Machine changes.
#pragma once

#include <cstdio>
#include <memory>
#include <vector>

#include "raccd/common/types.hpp"
#include "raccd/modes/coh_mode.hpp"

namespace raccd {

class Fabric;
class SimMemory;
class Tlb;
struct SimConfig;
struct SimStats;
struct TaskNode;

namespace obs {
class TraceSink;
}

/// Mode-agnostic machine state a backend may consult or drive. All references
/// outlive the backend (Machine constructs its backend last and destroys it
/// first).
struct BackendContext {
  const SimConfig& cfg;
  Fabric& fabric;
  SimMemory& mem;
  std::vector<Tlb>& tlbs;
};

/// Per-access classification result, produced on an L1 miss.
struct AccessClass {
  bool nc = false;        ///< issue the non-coherent transaction variant
  Cycle extra_cycles = 0; ///< classification cost (NCRT lookup, PT recovery)
};

class CoherenceBackend;

/// Devirtualized per-access classification hook: resolved once per task,
/// called once per L1 miss. A null `fn` means "always coherent, zero cost".
struct ClassifierView {
  using Fn = AccessClass (*)(CoherenceBackend* self, CoreId c, VAddr vaddr,
                             PAddr paddr, PageNum pframe, Cycle now);
  CoherenceBackend* self = nullptr;
  Fn fn = nullptr;

  [[nodiscard]] explicit operator bool() const noexcept { return fn != nullptr; }
  [[nodiscard]] AccessClass operator()(CoreId c, VAddr vaddr, PAddr paddr,
                                       PageNum pframe, Cycle now) const {
    return fn(self, c, vaddr, paddr, pframe, now);
  }
};

/// What a task-end hook did (cycles are charged to the finishing core).
struct TaskEndOutcome {
  Cycle cycles = 0;
  std::uint64_t flushed_lines = 0;
  std::uint64_t flushed_wbs = 0;
};

class CoherenceBackend {
 public:
  explicit CoherenceBackend(const BackendContext& ctx) : ctx_(ctx) {}
  virtual ~CoherenceBackend() = default;

  [[nodiscard]] virtual CohMode mode() const noexcept = 0;

  /// Pre-execution hook on the scheduled core at time `now`; returns cycles
  /// to charge.
  virtual Cycle on_task_start(CoreId c, const TaskNode& node, Cycle now);

  /// The per-access classification view (cached by Machine per task).
  [[nodiscard]] virtual ClassifierView classifier() noexcept { return {}; }

  /// Post-execution hook on the finishing core at time `now`.
  virtual TaskEndOutcome on_task_end(CoreId c, Cycle now);

  /// Export mode-private statistics (NCRT, PT classifier, ...) into `s`.
  virtual void accumulate(SimStats& s) const;

  /// Attach a simulated-time event trace (obs/trace_sink.hpp); nullptr
  /// detaches. Observation only: backends emit mode events on it (RaCCD
  /// register/NCRT overflow, PT classification flips) and never let the
  /// sink's presence alter policy, timing, or stats.
  void set_obs_trace(obs::TraceSink* sink) {
    obs_trace_ = sink;
    on_obs_trace();
  }

 protected:
  /// Called after a sink attaches/detaches so backends can (re)intern their
  /// event names; default does nothing (FullCoh/WbNC emit no mode events).
  virtual void on_obs_trace() {}

  BackendContext ctx_;
  obs::TraceSink* obs_trace_ = nullptr;
};

/// Construct the backend `cfg.mode` names. Asserts on unknown modes.
[[nodiscard]] std::unique_ptr<CoherenceBackend> make_backend(const BackendContext& ctx);

/// Static per-mode reporting hooks, so report/stats printers never switch on
/// CohMode themselves. Null members mean "nothing mode-specific to print".
struct ModeTraits {
  CohMode mode = CohMode::kFullCoh;
  /// One-line machine-config addendum (e.g. RaCCD's NCRT geometry).
  void (*print_config_extra)(const SimConfig& cfg, std::FILE* out) = nullptr;
  /// Run-report addendum (e.g. RaCCD's register/invalidate overheads).
  void (*print_report_extra)(const SimStats& s, std::FILE* out) = nullptr;
};

[[nodiscard]] const ModeTraits& mode_traits(CohMode m) noexcept;

}  // namespace raccd
