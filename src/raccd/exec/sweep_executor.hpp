// SweepExecutor: drives a list of RunSpecs over the work-stealing pool.
//
// This is the harness-side half of the exec/ subsystem (it is compiled into
// the harness layer: it speaks RunSpec/SimStats/sweep-cache, which the
// generic pool below it deliberately does not). run_all() and Grid::run()
// are thin wrappers over it.
//
// Guarantees, in order of importance:
//
//  * Determinism — workers commit each result into results[spec_index], so
//    the returned vector (and everything derived from it: ResultSet CSV and
//    JSON, the merged results/BENCH_grid.json) is byte-identical between
//    -j1 and -jN regardless of completion order. The simulations themselves
//    are independent Machines with per-spec seeds and share no mutable
//    state.
//  * At-most-once simulation per key — specs are deduplicated by cache key
//    (sampling variants dedup separately; a series only exists if the run
//    executes) before any work is issued, so two workers never simulate the
//    same uncached spec; duplicates are copied from the first instance
//    after the sweep drains. Across *processes*, the sweep cache's store,
//    which links each entry in whole under its name, keeps concurrent
//    writers of one key safe (each links identical bytes — the model is
//    deterministic).
//  * Failure containment — a spec that fails (unknown workload, functional
//    verification, an exception out of the app) records its RunSpec::key()
//    and error, cancels all queued specs, and lets in-flight specs drain;
//    it does not abort the process mid-sweep. Callers inspect failures()
//    (run_all reports them and then aborts, preserving its historical
//    contract). RACCD_ASSERT failures deep inside the simulator still
//    abort the process — those are simulator invariants, not run failures.
//
// jobs == 1 runs every spec inline on the calling thread (no pool, exactly
// the historical serial path).
#pragma once

#include <string>
#include <vector>

#include "raccd/harness/experiment.hpp"

namespace raccd {

/// One failed spec: its identity key and what went wrong.
struct SweepFailure {
  std::string key;
  std::string error;
};

class SweepExecutor {
 public:
  explicit SweepExecutor(const RunOptions& opts) : opts_(opts) {}

  /// Execute `specs`; results align with specs by index. Cached results are
  /// loaded up front, the remainder is deduplicated and fanned over
  /// the pool. On failure the sweep stops issuing new work,
  /// drains, and the failed slots keep zeroed stats — check failures().
  [[nodiscard]] std::vector<SimStats> run(const std::vector<RunSpec>& specs,
                                          std::vector<Series>* series_out = nullptr);

  /// Failures from the last run(), in completion order (first entry is the
  /// failure that stopped the sweep).
  [[nodiscard]] const std::vector<SweepFailure>& failures() const noexcept {
    return failures_;
  }

  /// Effective worker count for `jobs` (0 = hardware concurrency) and a
  /// sweep of `todo` runs (never more workers than runs, never 0).
  [[nodiscard]] static unsigned effective_jobs(unsigned jobs, std::size_t todo);

 private:
  RunOptions opts_;
  std::vector<SweepFailure> failures_;
};

}  // namespace raccd
