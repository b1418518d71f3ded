// Runtime-assisted coherence deactivation backend (paper §III) — the mode
// the paper contributes. Owns the RaccdEngine (one NCRT per core):
//
//  * on_task_start — one raccd_register per task dependence, translating the
//    region's pages through the core's TLB and inserting collapsed physical
//    ranges into the NCRT (paper Fig. 3/5).
//  * classify      — a 1-cycle NCRT lookup on every L1 miss selects the
//    coherent or non-coherent transaction variant.
//  * on_task_end   — raccd_invalidate: clear the NCRT and walk the L1
//    flushing NC lines (paper §III-C.4).
#pragma once

#include "raccd/core/raccd_engine.hpp"
#include "raccd/modes/coherence_backend.hpp"

namespace raccd {

class RaccdBackend final : public CoherenceBackend {
 public:
  explicit RaccdBackend(const BackendContext& ctx);

  [[nodiscard]] CohMode mode() const noexcept override { return CohMode::kRaCCD; }
  Cycle on_task_start(CoreId c, const TaskNode& node, Cycle now) override;
  [[nodiscard]] ClassifierView classifier() noexcept override {
    return {this, &RaccdBackend::classify_thunk};
  }
  TaskEndOutcome on_task_end(CoreId c, Cycle now) override;
  void accumulate(SimStats& s) const override;

  [[nodiscard]] RaccdEngine& engine() noexcept { return engine_; }

 private:
  static AccessClass classify_thunk(CoherenceBackend* self, CoreId c, VAddr vaddr,
                                    PAddr paddr, PageNum pframe, Cycle now);
  void on_obs_trace() override;

  RaccdEngine engine_;
  /// Interned trace-event names (valid iff obs_trace_ != nullptr).
  struct ObsIds {
    std::uint16_t reg = 0, overflow = 0, pages = 0, ranges = 0;
  } obs_ids_{};
};

}  // namespace raccd
