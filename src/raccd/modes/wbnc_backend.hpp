// Writeback-non-coherent software coherence baseline, after task-parallel
// runtimes for non-coherent machines (BDDT-SCC, Labrineas et al.; the
// distributed-manager runtime of Bosch et al.).
//
// Every request takes the non-coherent variant — straight to the home LLC
// bank, never touching the directory — and correctness is recovered in
// software at task boundaries: the runtime flushes the finishing core's
// whole L1 (all lines carry the NC bit in this mode), writing dirty data
// back so dependent tasks observe it. No NCRT, no page classification, no
// directory state at all: the lower bound on directory pressure and the
// upper bound on task-boundary flush cost among the implemented modes.
#pragma once

#include "raccd/modes/coherence_backend.hpp"

namespace raccd {

/// Software cache-flush call at task end, on top of the flush walk.
inline constexpr Cycle kSwcohFlushCallCycles = 30;

class WbNcBackend final : public CoherenceBackend {
 public:
  explicit WbNcBackend(const BackendContext& ctx) : CoherenceBackend(ctx) {}

  [[nodiscard]] CohMode mode() const noexcept override { return CohMode::kWbNC; }
  [[nodiscard]] ClassifierView classifier() noexcept override {
    return {this, &WbNcBackend::classify_thunk};
  }
  TaskEndOutcome on_task_end(CoreId c, Cycle now) override;

 private:
  static AccessClass classify_thunk(CoherenceBackend* self, CoreId c, VAddr vaddr,
                                    PAddr paddr, PageNum pframe, Cycle now);
};

}  // namespace raccd
