#include "raccd/modes/pt_backend.hpp"

#include "raccd/coherence/fabric.hpp"
#include "raccd/obs/trace_sink.hpp"
#include "raccd/sim/config.hpp"
#include "raccd/sim/stats.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {

void PtBackend::on_obs_trace() {
  if (obs_trace_ == nullptr) return;
  obs_ids_.flip = obs_trace_->intern("pt_flip");
  obs_ids_.vpage = obs_trace_->intern("vpage");
  obs_ids_.prev_owner = obs_trace_->intern("prev_owner");
}

AccessClass PtBackend::classify_thunk(CoherenceBackend* self, CoreId c, VAddr vaddr,
                                      PAddr paddr, PageNum pframe, Cycle now) {
  (void)paddr;
  return static_cast<PtBackend*>(self)->classify(c, vaddr, pframe, now);
}

AccessClass PtBackend::classify(CoreId c, VAddr vaddr, PageNum pframe, Cycle now) {
  AccessClass out;
  const PageNum vpage = page_of(vaddr);
  const PtClassifier::Decision d = pt_.on_access(c, vpage);
  if (d.transition) {
    // private -> shared recovery: flush the previous owner's cached lines of
    // this page and shoot down its TLB entry; the accessor waits for the
    // recovery to complete. The flush is the remote touch that brings the
    // owner up to date first (Fabric::RemoteTouchHook), for both steps.
    const auto fo = ctx_.fabric.flush_page_lines(d.prev_owner, pframe, now);
    ctx_.tlbs[d.prev_owner].invalidate(vpage);
    out.extra_cycles = fo.cycles + ctx_.cfg.timing.pt_shootdown_cycles;
    if (obs_trace_ != nullptr && obs_trace_->wants(obs::TraceCat::kCoh)) {
      // Classification flip: the page just went private -> shared forever
      // (paper §II-B); placed when the recovery completes.
      obs_trace_->instant(obs::TraceCat::kCoh, obs::kPidCoherence, c,
                          obs_ids_.flip, now + out.extra_cycles, obs_ids_.vpage,
                          vpage, obs_ids_.prev_owner, d.prev_owner);
    }
  }
  out.nc = d.noncoherent;
  return out;
}

void PtBackend::accumulate(SimStats& s) const { s.pt = pt_.stats(); }

}  // namespace raccd
