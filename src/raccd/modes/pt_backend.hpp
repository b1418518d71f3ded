// OS page-table classification backend (paper §II-B, §V-A; Cuesta et al.,
// ISCA'11). Owns the PtClassifier: on each L1 miss the accessed virtual page
// is classified first-touch-private (non-coherent) or shared (coherent); a
// private page touched by a second core transitions to shared forever, and
// the accessor pays the recovery — flushing the previous owner's cached
// lines of the page and shooting down its TLB entry.
#pragma once

#include "raccd/core/pt_classifier.hpp"
#include "raccd/modes/coherence_backend.hpp"

namespace raccd {

class PtBackend final : public CoherenceBackend {
 public:
  explicit PtBackend(const BackendContext& ctx) : CoherenceBackend(ctx) {}

  [[nodiscard]] CohMode mode() const noexcept override { return CohMode::kPT; }
  [[nodiscard]] ClassifierView classifier() noexcept override {
    return {this, &PtBackend::classify_thunk};
  }
  void accumulate(SimStats& s) const override;

  [[nodiscard]] PtClassifier& pt() noexcept { return pt_; }

 private:
  static AccessClass classify_thunk(CoherenceBackend* self, CoreId c, VAddr vaddr,
                                    PAddr paddr, PageNum pframe, Cycle now);
  AccessClass classify(CoreId c, VAddr vaddr, PageNum pframe, Cycle now);
  void on_obs_trace() override;

  PtClassifier pt_;
  /// Interned trace-event names (valid iff obs_trace_ != nullptr).
  struct ObsIds {
    std::uint16_t flip = 0, vpage = 0, prev_owner = 0;
  } obs_ids_{};
};

}  // namespace raccd
