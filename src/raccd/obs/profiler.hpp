// Host-side (wall-clock) profiling for sweeps: lightweight scope timers fill
// a per-run setup/sim breakdown, the SweepExecutor aggregates them with
// per-worker busy time and steal telemetry from the work-stealing pool, and
// the result is surfaced three ways — the progress reporter's final summary
// line, an opt-in `__profile__` entry merged into results/BENCH_*.json, and
// `raccd-report profile` for showing/diffing recorded breakdowns.
//
// Host time never touches SimStats, cache keys, or the stats cache: profile
// data is nondeterministic by nature, so it rides beside the results (a
// double-underscore bench entry the perf differ skips), never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "raccd/common/field_list.hpp"

namespace raccd::obs {

/// Monotonic wall-clock scope timer; seconds since construction or reset().
class ScopeTimer {
 public:
  ScopeTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Work the machine's event loop did in one run, counted, not timed: the
/// same spec always yields the same counts, on any host, so a change to the
/// loop shows its mechanism moving exactly next to the noisy wall times.
/// Like host time, it never enters SimStats.
#define RACCD_ENGINE_WORK_FIELDS(X)                                                    \
  X(std::uint64_t, ordered_events)  /* steps taken in the global (clock, id) order */  \
  X(std::uint64_t, ordered_records) /* trace records replayed as ordered steps */      \
  X(std::uint64_t, pure_hits)       /* records run as pure hits, outside the order */  \
  X(std::uint64_t, catch_ups)       /* remote touches that found pending pure hits */  \
  X(std::uint64_t, peeked)          /* records examined by lookahead */

struct EngineWork {
  RACCD_FIELDS(EngineWork, RACCD_ENGINE_WORK_FIELDS)
};

/// Wall-time breakdown of one simulation run, and its engine work.
struct RunProfile {
  double setup_s = 0.0;  ///< SimConfig + Machine + workload construction
  double sim_s = 0.0;    ///< app body + replay + collect
  EngineWork work;
};

struct WorkerProfile {
  double busy_s = 0.0;     ///< summed run wall time on this worker
  std::uint64_t runs = 0;  ///< runs completed (incl. failed)
};

/// Aggregated profile of one sweep (one run_all / SweepExecutor::run call).
struct SweepProfile {
  double wall_s = 0.0;     ///< whole sweep, preload to drain
  double preload_s = 0.0;  ///< cache preload scan
  double setup_s = 0.0;    ///< summed RunProfile::setup_s across runs
  double sim_s = 0.0;      ///< summed RunProfile::sim_s across runs
  double export_s = 0.0;   ///< bench JSON render+merge (accumulated by grid)
  std::uint64_t cached = 0;    ///< specs satisfied from the stats cache
  std::uint64_t executed = 0;  ///< specs actually simulated
  std::uint64_t failed = 0;    ///< specs that failed verification/setup
  std::uint64_t deduped = 0;   ///< duplicate specs satisfied by copy
  std::uint64_t steals = 0;    ///< pool steal count (0 for -j1)
  EngineWork work;             ///< summed RunProfile::work across runs
  unsigned jobs = 1;
  std::vector<WorkerProfile> workers;

  /// Summed worker busy time over jobs * wall_s; 0 when nothing ran.
  [[nodiscard]] double utilization() const;
  /// One-line wall-time breakdown ("3.2s wall (setup 0.1s, sim 3.0s, …)") —
  /// the progress reporter's final line appends it after the run counts.
  [[nodiscard]] std::string summary() const;
  /// Bench-JSON field list for the `__profile__` entry (sorted keys).
  [[nodiscard]] std::string json_fields() const;
};

/// The most recent sweep's profile (process-wide; sweeps never overlap).
/// SweepExecutor::run fills it; bench binaries read it to merge into their
/// BENCH files and grid export timing accumulates into export_s.
[[nodiscard]] SweepProfile& last_sweep_profile();

}  // namespace raccd::obs
