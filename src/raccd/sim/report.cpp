#include "raccd/sim/report.hpp"

#include <algorithm>
#include <vector>

#include "raccd/common/format.hpp"
#include "raccd/energy/area_model.hpp"
#include "raccd/modes/coherence_backend.hpp"
#include "raccd/sim/config.hpp"

namespace raccd {

void print_config(const SimConfig& cfg, std::FILE* out) {
  const auto& f = cfg.fabric;
  std::fprintf(out, "machine: %u cores, %s, mode=%s\n", f.cores,
               Topology(f.topo, f.cores).describe().c_str(), to_string(cfg.mode));
  std::fprintf(out, "  L1D: %s, %u-way, %u-cycle | TLB: %u entries\n",
               format_bytes(f.l1.size_bytes).c_str(), f.l1.ways,
               static_cast<unsigned>(f.l1_hit_cycles), cfg.tlb_entries);
  std::fprintf(out, "  LLC: %s total (%s/bank), %u-way, %u-cycle\n",
               format_bytes(static_cast<std::uint64_t>(f.llc.lines_per_bank) * f.cores *
                            kLineBytes)
                   .c_str(),
               format_bytes(static_cast<std::uint64_t>(f.llc.lines_per_bank) * kLineBytes)
                   .c_str(),
               f.llc.ways, static_cast<unsigned>(f.llc_cycles));
  const std::uint64_t dir_total = cfg.total_dir_entries();
  const DirStorage ds = AreaModel::directory_storage(dir_total);
  std::fprintf(out,
               "  directory: 1:%u — %s entries (%u/bank), %u-way, %u-cycle, %.1f KB, "
               "%.2f mm2\n",
               cfg.dir_ratio(), format_count(dir_total).c_str(), f.dir.entries_per_bank,
               f.dir.ways, static_cast<unsigned>(cfg.fabric.dir_cycles), ds.kilobytes,
               ds.area_mm2);
  const ModeTraits& traits = mode_traits(cfg.mode);
  if (traits.print_config_extra != nullptr) traits.print_config_extra(cfg, out);
}

void print_report(const SimStats& s, std::FILE* out) {
  std::fputs(s.summary().c_str(), out);
  std::fprintf(out, "  runtime overhead: create=%s sched=%s wakeup=%s",
               format_count(s.create_cycles).c_str(),
               format_count(s.schedule_cycles).c_str(),
               format_count(s.wakeup_cycles).c_str());
  const ModeTraits& traits = mode_traits(s.mode);
  if (traits.print_report_extra != nullptr) traits.print_report_extra(s, out);
  std::fputc('\n', out);
  if (s.adr_enabled) {
    std::fprintf(out, "  ADR: %llu grows, %llu shrinks, %llu moved, blocked %s cycles\n",
                 static_cast<unsigned long long>(s.adr.grows),
                 static_cast<unsigned long long>(s.adr.shrinks),
                 static_cast<unsigned long long>(s.adr.entries_moved),
                 format_count(s.adr.blocked_cycles).c_str());
  }
  if (s.sampling.active != 0) {
    std::fprintf(out,
                 "  sampled: %llu windows (%llu measured / %llu warmup / %llu "
                 "ffwd tasks), scale %.2fx, cycles ±%s (95%% CI)\n",
                 static_cast<unsigned long long>(s.sampling.windows),
                 static_cast<unsigned long long>(s.sampling.measured_tasks),
                 static_cast<unsigned long long>(s.sampling.warmup_tasks),
                 static_cast<unsigned long long>(s.sampling.ffwd_tasks),
                 s.sampling.scale,
                 format_count(static_cast<std::uint64_t>(s.sampling.cycles_ci95))
                     .c_str());
  }
  if (s.service.requests != 0) {
    const auto line = [out](const char* what, const DistSummary& d) {
      std::fprintf(out,
                   "    %-8s mean=%s p50=%s p95=%s p99=%s max=%s\n", what,
                   format_count(static_cast<std::uint64_t>(d.mean)).c_str(),
                   format_count(static_cast<std::uint64_t>(d.p50)).c_str(),
                   format_count(static_cast<std::uint64_t>(d.p95)).c_str(),
                   format_count(static_cast<std::uint64_t>(d.p99)).c_str(),
                   format_count(static_cast<std::uint64_t>(d.max)).c_str());
    };
    std::fprintf(out, "  service: %llu requests, latency in cycles:\n",
                 static_cast<unsigned long long>(s.service.requests));
    line("queue", s.service.queueing);
    line("svc", s.service.service);
    line("e2e", s.service.e2e);
  }
}

void print_metrics(const SimStats& s, std::span<const MetricDesc* const> selection,
                   std::FILE* out) {
  std::size_t name_w = 0, val_w = 0;
  std::vector<std::string> values;
  values.reserve(selection.size());
  for (const MetricDesc* m : selection) {
    name_w = std::max(name_w, std::string(m->name).size());
    values.push_back(m->format(s));
    val_w = std::max(val_w, values.back().size());
  }
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const MetricDesc* m = selection[i];
    std::fprintf(out, "  %-*s  %*s%s%s  # %s\n", static_cast<int>(name_w), m->name,
                 static_cast<int>(val_w), values[i].c_str(),
                 m->unit[0] != '\0' ? " " : "", m->unit, m->doc);
  }
}

}  // namespace raccd
