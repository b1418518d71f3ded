#include "raccd/modes/wbnc_backend.hpp"

#include "raccd/coherence/fabric.hpp"
#include "raccd/sim/config.hpp"

namespace raccd {

AccessClass WbNcBackend::classify_thunk(CoherenceBackend* self, CoreId c, VAddr vaddr,
                                        PAddr paddr, PageNum pframe, Cycle now) {
  (void)self;
  (void)c;
  (void)vaddr;
  (void)paddr;
  (void)pframe;
  (void)now;
  // Every request is non-coherent; classification is free (no lookup
  // structure — the mode is wired into the memory instructions).
  return {true, 0};
}

TaskEndOutcome WbNcBackend::on_task_end(CoreId c, Cycle now) {
  // Software coherence: write back and invalidate the finishing core's L1 so
  // dependent tasks read the produced data from the LLC. All lines are NC in
  // this mode, so the NC-line walk empties the whole cache.
  const auto fo = ctx_.fabric.flush_nc_lines(c, now);
  return {kSwcohFlushCallCycles + fo.cycles, fo.lines,
          fo.writebacks};
}

}  // namespace raccd
