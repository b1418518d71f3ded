// Page-Table private/shared classification — the PT baseline (paper §II-B,
// §V-A; Cuesta et al., ISCA'11).
//
// First-touch marks a page private to the touching core; accesses to private
// pages go non-coherent. When a *different* core touches the page it becomes
// shared forever: the previous owner's cached blocks of the page are flushed
// and its TLB entry shot down (costs charged to the accessor, who waits for
// the recovery). Because pages never transition back, temporarily-private
// data (task data migrating between cores under a dynamic scheduler) ends up
// classified shared — the inaccuracy RaCCD removes.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/common/field_list.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

enum class PageClass : std::uint8_t { kUntouched = 0, kPrivate, kShared };

#define RACCD_PT_CLASSIFIER_STATS_FIELDS(X)                               \
  X(std::uint64_t, first_touches)                                         \
  X(std::uint64_t, transitions) /* private -> shared reclassifications */

struct PtClassifierStats {
  RACCD_FIELDS(PtClassifierStats, RACCD_PT_CLASSIFIER_STATS_FIELDS)
};

class PtClassifier {
 public:
  struct Decision {
    bool noncoherent = false;   ///< access may use the NC variant
    bool transition = false;    ///< page just went private -> shared
    CoreId prev_owner = kNoCore;  ///< valid when transition
  };

  /// Classify an access by core `c` to virtual page `vpage` and update the
  /// page state. On a transition the caller must flush the previous owner's
  /// cached lines of the page and shoot down its TLB entry.
  Decision on_access(CoreId c, PageNum vpage);

  [[nodiscard]] PageClass class_of(PageNum vpage) const noexcept;
  [[nodiscard]] CoreId owner_of(PageNum vpage) const noexcept;
  [[nodiscard]] const PtClassifierStats& stats() const noexcept { return stats_; }

 private:
  struct PageState {
    PageClass cls = PageClass::kUntouched;
    CoreId owner = kNoCore;
  };
  std::vector<PageState> pages_;  // dense by vpage
  PtClassifierStats stats_;
};

}  // namespace raccd
