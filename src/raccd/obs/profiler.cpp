#include "raccd/obs/profiler.hpp"

#include "raccd/common/format.hpp"

namespace raccd::obs {

double SweepProfile::utilization() const {
  if (wall_s <= 0.0 || jobs == 0) return 0.0;
  double busy = 0.0;
  for (const WorkerProfile& w : workers) busy += w.busy_s;
  return busy / (wall_s * static_cast<double>(jobs));
}

std::string SweepProfile::summary() const {
  // Counts (run/cached/failed) are the progress reporter's prefix; this is
  // the wall-time breakdown that follows it.
  std::string out = strprintf("%.1fs wall", wall_s);
  if (executed > 0 || failed > 0) {
    out += strprintf(" (setup %.1fs, sim %.1fs", setup_s, sim_s);
    if (jobs > 1) {
      out += strprintf(", %u workers %.0f%% busy, %llu steals", jobs,
                       utilization() * 100.0,
                       static_cast<unsigned long long>(steals));
    }
    out += ")";
  }
  return out;
}

std::string SweepProfile::json_fields() const {
  // Sorted keys to match append_bench_json's canonical entry layout.
  return strprintf(
      "\"cached\": %llu, \"catch_ups\": %llu, \"deduped\": %llu, \"executed\": %llu, "
      "\"export_s\": %.3f, \"failed\": %llu, \"jobs\": %u, "
      "\"ordered_events\": %llu, \"ordered_records\": %llu, \"peeked\": %llu, "
      "\"preload_s\": %.3f, \"pure_hits\": %llu, \"setup_s\": %.3f, \"sim_s\": %.3f, "
      "\"steals\": %llu, \"utilization\": %.3f, \"wall_s\": %.3f",
      static_cast<unsigned long long>(cached),
      static_cast<unsigned long long>(work.catch_ups),
      static_cast<unsigned long long>(deduped),
      static_cast<unsigned long long>(executed), export_s,
      static_cast<unsigned long long>(failed), jobs,
      static_cast<unsigned long long>(work.ordered_events),
      static_cast<unsigned long long>(work.ordered_records),
      static_cast<unsigned long long>(work.peeked), preload_s,
      static_cast<unsigned long long>(work.pure_hits), setup_s, sim_s,
      static_cast<unsigned long long>(steals), utilization(), wall_s);
}

SweepProfile& last_sweep_profile() {
  static SweepProfile profile;
  return profile;
}

}  // namespace raccd::obs
