#include "raccd/exec/sweep_executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"
#include "raccd/exec/progress.hpp"
#include "raccd/exec/work_steal_pool.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/obs/profiler.hpp"

namespace raccd {

unsigned SweepExecutor::effective_jobs(unsigned jobs, std::size_t todo) {
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  return std::max(1u, std::min<unsigned>(jobs, static_cast<unsigned>(
                                                   std::max<std::size_t>(1, todo))));
}

std::vector<SimStats> SweepExecutor::run(const std::vector<RunSpec>& specs,
                                         std::vector<Series>* series_out) {
  failures_.clear();
  // Host-side wall-time profile of this sweep: filled as the sweep runs,
  // published through obs::last_sweep_profile() at the end (export timing is
  // accumulated there later by the grid emitters). Observation only — it
  // never influences scheduling, results, or the cache.
  obs::SweepProfile profile;
  obs::ScopeTimer wall;
  std::vector<SimStats> results(specs.size());
  std::vector<std::uint8_t> pending(specs.size(), 1);
  if (series_out != nullptr) series_out->assign(specs.size(), Series{});
  const auto samples = [&](std::size_t i) {
    return series_out != nullptr && specs[i].series_interval > 0;
  };

  if (opts_.use_cache) {
    const obs::ScopeTimer preload;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      // A cached SimStats cannot satisfy a sampling spec: the series only
      // exists if the simulation actually runs.
      if (samples(i)) continue;
      if (auto cached = cache_load(opts_.cache_dir, specs[i].key())) {
        results[i] = *cached;
        pending[i] = 0;
        ++profile.cached;
      }
    }
    profile.preload_s = preload.seconds();
  }

  // In-flight dedup: identical specs (same cache key) are simulated once and
  // copied after the sweep drains, so two workers never race the same
  // uncached spec and callers may pass lists with repeats for free.
  // Sampling variants dedup separately: series params are deliberately not
  // part of the cache key (they don't change the stats).
  const auto dedup_key = [&](std::size_t i) {
    std::string k = specs[i].key();
    if (samples(i)) {
      k += strprintf("+series%llu:%s",
                     static_cast<unsigned long long>(specs[i].series_interval),
                     specs[i].series_metrics.c_str());
    }
    return k;
  };
  std::vector<std::size_t> todo;
  std::unordered_map<std::string, std::size_t> first_with_key;
  std::vector<std::pair<std::size_t, std::size_t>> dup;  // (dst, src) indices
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (pending[i] == 0) continue;
    const auto [it, inserted] = first_with_key.try_emplace(dedup_key(i), i);
    if (inserted) todo.push_back(i);
    else dup.emplace_back(i, it->second);
  }

  profile.deduped = dup.size();

  {
    const unsigned jobs = effective_jobs(opts_.jobs, todo.size());
    profile.jobs = jobs;
    profile.workers.assign(jobs, {});
    ProgressReporter progress(todo.size(), jobs, opts_.verbose, stderr,
                              /*force_tty=*/-1, profile.cached);
    std::mutex failures_mutex;
    std::mutex profile_mutex;
    std::atomic<bool> stop{false};

    // The per-spec task body. Returns through `results[i]` (index commit:
    // the determinism guarantee) and the cache; never throws.
    const auto run_slot = [&](std::size_t i, unsigned worker) {
      const std::string key = specs[i].key();
      progress.run_started(worker, key);
      const obs::ScopeTimer busy;
      obs::RunProfile run_profile;
      // Sampled specs feed phase transitions into the strip: the entry shows
      // whether the worker is fast-forwarding or measuring, and the window.
      std::function<void(SimPhase, std::uint64_t)> phase_hook;
      if (opts_.verbose && !specs[i].sampling.empty()) {
        phase_hook = [&progress, worker](SimPhase p, std::uint64_t window) {
          progress.phase_changed(worker, p == SimPhase::kFfwd, window);
        };
      }
      // Open-loop service specs feed release batches into the strip the same
      // way; batch workloads never fire the hook, so wiring it is free.
      std::function<void(std::uint64_t)> release_hook;
      if (opts_.verbose) {
        release_hook = [&progress, worker](std::uint64_t released) {
          progress.release_changed(worker, released);
        };
      }
      std::string err;
      std::optional<SimStats> stats;
      try {
        stats = run_one_checked(specs[i], samples(i) ? &(*series_out)[i] : nullptr,
                                &err, phase_hook, release_hook, &run_profile);
      } catch (const std::exception& e) {
        err = strprintf("unhandled exception: %s", e.what());
      } catch (...) {
        err = "unhandled exception (non-std type)";
      }
      {
        const std::lock_guard<std::mutex> lock(profile_mutex);
        profile.setup_s += run_profile.setup_s;
        profile.sim_s += run_profile.sim_s;
        add_fields(profile.work, run_profile.work);
        const unsigned slot = worker == ProgressReporter::kNoWorker ? 0 : worker;
        if (slot < profile.workers.size()) {
          profile.workers[slot].busy_s += busy.seconds();
          ++profile.workers[slot].runs;
        }
        if (stats.has_value()) ++profile.executed;
        else ++profile.failed;
      }
      if (!stats.has_value()) {
        stop.store(true, std::memory_order_relaxed);
        {
          const std::lock_guard<std::mutex> lock(failures_mutex);
          failures_.push_back({key, err});
        }
        progress.run_failed(worker, key, err);
        return;
      }
      results[i] = *stats;
      if (opts_.use_cache && !cache_store(opts_.cache_dir, key, results[i]) &&
          opts_.verbose) {
        std::fprintf(stderr, "warning: could not store cache entry '%s' under %s\n",
                     key.c_str(), opts_.cache_dir.c_str());
      }
      progress.run_finished(worker, key);
    };

    if (todo.empty()) {
      // Nothing to simulate (all cached): no workers, but the summary below
      // still reports the cache hits.
    } else if (jobs == 1) {
      // Inline serial path: the historical behavior, on the calling thread.
      for (const std::size_t i : todo) {
        if (stop.load(std::memory_order_relaxed)) break;  // drain semantics
        run_slot(i, ProgressReporter::kNoWorker);
      }
    } else {
      WorkStealPool pool(jobs);
      for (const std::size_t i : todo) {
        pool.submit([&, i] {
          run_slot(i, pool.current_worker());
          // First failure stops issuing new work: queued specs are dropped,
          // in-flight specs on other workers drain normally.
          if (stop.load(std::memory_order_relaxed)) pool.cancel();
        });
      }
      pool.wait();
      profile.steals = pool.steal_count();
    }
    profile.wall_s = wall.seconds();
    progress.set_summary_extra(profile.summary());
    progress.finish();
  }

  for (const auto& [dst, src] : dup) {
    results[dst] = results[src];
    if (series_out != nullptr && samples(dst)) (*series_out)[dst] = (*series_out)[src];
  }
  // Publish for bench binaries / grid emitters; export_s starts at zero and
  // accumulates as the ResultSet emitters time their own writes.
  obs::last_sweep_profile() = std::move(profile);
  return results;
}

}  // namespace raccd
