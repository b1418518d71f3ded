#include "raccd/modes/coherence_backend.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"
#include "raccd/modes/fullcoh_backend.hpp"
#include "raccd/modes/pt_backend.hpp"
#include "raccd/modes/raccd_backend.hpp"
#include "raccd/modes/wbnc_backend.hpp"
#include "raccd/sim/config.hpp"
#include "raccd/sim/stats.hpp"

namespace raccd {

Cycle CoherenceBackend::on_task_start(CoreId c, const TaskNode& node, Cycle now) {
  (void)c;
  (void)node;
  (void)now;
  return 0;
}

TaskEndOutcome CoherenceBackend::on_task_end(CoreId c, Cycle now) {
  (void)c;
  (void)now;
  return {};
}

void CoherenceBackend::accumulate(SimStats& s) const { (void)s; }

std::unique_ptr<CoherenceBackend> make_backend(const BackendContext& ctx) {
  switch (ctx.cfg.mode) {
    case CohMode::kFullCoh: return std::make_unique<FullCohBackend>(ctx);
    case CohMode::kPT: return std::make_unique<PtBackend>(ctx);
    case CohMode::kRaCCD: return std::make_unique<RaccdBackend>(ctx);
    case CohMode::kWbNC: return std::make_unique<WbNcBackend>(ctx);
  }
  RACCD_ASSERT(false, "unknown coherence mode");
  return nullptr;
}

namespace {

void raccd_print_config_extra(const SimConfig& cfg, std::FILE* out) {
  std::fprintf(out, "  NCRT: %u entries/core, %u-cycle lookup | ADR: %s\n",
               cfg.raccd.ncrt_entries,
               static_cast<unsigned>(cfg.raccd.ncrt_lookup_cycles),
               cfg.adr.enabled ? "on" : "off");
}

void raccd_print_report_extra(const SimStats& s, std::FILE* out) {
  std::fprintf(out, " register=%s invalidate=%s (flushed %llu lines, %llu WBs)",
               format_count(s.register_cycles).c_str(),
               format_count(s.invalidate_cycles).c_str(),
               static_cast<unsigned long long>(s.flushed_nc_lines),
               static_cast<unsigned long long>(s.flushed_nc_wbs));
}

void wbnc_print_config_extra(const SimConfig& /*cfg*/, std::FILE* out) {
  std::fprintf(out, "  software coherence: whole-L1 writeback flush at task end "
                    "(%u-cycle call)\n",
               static_cast<unsigned>(kSwcohFlushCallCycles));
}

void wbnc_print_report_extra(const SimStats& s, std::FILE* out) {
  std::fprintf(out, " flush=%s (flushed %llu lines, %llu WBs)",
               format_count(s.invalidate_cycles).c_str(),
               static_cast<unsigned long long>(s.flushed_nc_lines),
               static_cast<unsigned long long>(s.flushed_nc_wbs));
}

constexpr std::array<ModeTraits, kAllBackends.size()> kModeTraits{{
    {CohMode::kFullCoh, nullptr, nullptr},
    {CohMode::kPT, nullptr, nullptr},
    {CohMode::kRaCCD, &raccd_print_config_extra, &raccd_print_report_extra},
    {CohMode::kWbNC, &wbnc_print_config_extra, &wbnc_print_report_extra},
}};

}  // namespace

const ModeTraits& mode_traits(CohMode m) noexcept {
  const auto idx = static_cast<std::size_t>(m);
  if (idx >= kModeTraits.size()) {
    // Out-of-range values can arrive from deserialized stats (corrupt or
    // future-version cache files); print nothing mode-specific, like the
    // pre-registry switch did for unknown modes.
    static constexpr ModeTraits kUnknown{};
    return kUnknown;
  }
  RACCD_DEBUG_ASSERT(kModeTraits[idx].mode == m,
                     "mode traits table out of sync with CohMode");
  return kModeTraits[idx];
}

}  // namespace raccd
