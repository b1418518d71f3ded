#include "raccd/modes/raccd_backend.hpp"

#include "raccd/coherence/fabric.hpp"
#include "raccd/mem/sim_memory.hpp"
#include "raccd/obs/trace_sink.hpp"
#include "raccd/runtime/task.hpp"
#include "raccd/sim/config.hpp"
#include "raccd/sim/stats.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {

RaccdBackend::RaccdBackend(const BackendContext& ctx)
    : CoherenceBackend(ctx),
      engine_(ctx.cfg.fabric.cores, ctx.cfg.raccd) {}

void RaccdBackend::on_obs_trace() {
  if (obs_trace_ == nullptr) return;
  obs_ids_.reg = obs_trace_->intern("raccd_register");
  obs_ids_.overflow = obs_trace_->intern("ncrt_overflow");
  obs_ids_.pages = obs_trace_->intern("pages");
  obs_ids_.ranges = obs_trace_->intern("ranges");
}

Cycle RaccdBackend::on_task_start(CoreId c, const TaskNode& node, Cycle now) {
  // raccd_register for every input/output (paper §III-B).
  Cycle cost = 0;
  const bool tr = obs_trace_ != nullptr && obs_trace_->wants(obs::TraceCat::kCoh);
  for (const DepSpec& d : node.deps) {
    const RegisterOutcome ro =
        engine_.register_region(c, d.addr, d.size, ctx_.tlbs[c], ctx_.mem.page_table());
    cost += ro.cycles;
    if (tr) {
      // Page deactivation: this dependence's ranges just went non-coherent
      // for the task (paper Fig. 3). An overflow means at least one range
      // stayed coherent — the event Fig. 7's overhead tail comes from.
      obs_trace_->instant(obs::TraceCat::kCoh, obs::kPidCoherence, c,
                          ro.overflowed ? obs_ids_.overflow : obs_ids_.reg,
                          now + cost, obs_ids_.pages, ro.pages_translated,
                          obs_ids_.ranges, ro.ranges_inserted);
    }
  }
  return cost;
}

AccessClass RaccdBackend::classify_thunk(CoherenceBackend* self, CoreId c, VAddr vaddr,
                                         PAddr paddr, PageNum pframe, Cycle now) {
  (void)vaddr;
  (void)pframe;
  (void)now;
  auto* be = static_cast<RaccdBackend*>(self);
  return {be->engine_.is_noncoherent(c, paddr),
          be->ctx_.cfg.raccd.ncrt_lookup_cycles};
}

TaskEndOutcome RaccdBackend::on_task_end(CoreId c, Cycle now) {
  // raccd_invalidate: clear the NCRT and walk the L1 flushing NC lines
  // (paper §III-C.4). The instruction blocks until the walk completes.
  Cycle cost = engine_.invalidate(c);
  const auto fo = ctx_.fabric.flush_nc_lines(c, now);
  cost += fo.cycles;
  return {cost, fo.lines, fo.writebacks};
}

void RaccdBackend::accumulate(SimStats& s) const { s.ncrt = engine_.total_stats(); }

}  // namespace raccd
