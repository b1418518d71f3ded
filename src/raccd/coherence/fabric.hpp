// The coherence fabric: private L1s + banked shared LLC + banked sparse
// directory + mesh NoC + memory controllers (optionally backed by the
// channel/bank/row-buffer DRAM model of dram/dram.hpp), driven as atomic
// transactions.
//
// Every memory access runs to completion in protocol order ("now" values are
// globally non-decreasing because the simulation advances the core with the
// lowest local clock first). Per-bank busy windows model serialization at
// directory/LLC banks. This reproduces the quantities the paper's figures
// plot — directory accesses/occupancy, LLC hit ratio, NoC traffic, energy,
// and latency — without modelling protocol transient states (see DESIGN.md
// substitution #2).
//
// Non-coherent (NC) transactions (paper §III-C.3): requests flagged NC go to
// the home LLC bank only and never allocate directory state; NC lines carry
// the NC bit through L1 and LLC. Transitions between coherent and
// non-coherent (paper §III-E) allocate/deallocate the directory entry on
// demand.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "raccd/cache/l1_cache.hpp"
#include "raccd/cache/llc_bank.hpp"
#include "raccd/coherence/directory.hpp"
#include "raccd/coherence/fabric_stats.hpp"
#include "raccd/common/flat_map.hpp"
#include "raccd/common/types.hpp"
#include "raccd/dram/dram.hpp"
#include "raccd/energy/energy_model.hpp"
#include "raccd/noc/mesh.hpp"

namespace raccd {

class CoherenceChecker;

namespace obs {
class TraceSink;
}

/// Execution phase of the sampled simulator (SamplingConfig). The fabric's
/// *state* transitions (L1/LLC/directory tags, MESI, NC bits, memory
/// versions, DRAM row buffers) are identical in every phase — phases differ
/// only in timing fidelity and in which stats bucket the events land in:
///  * kMeasured — full detailed timing, stats into the measured bucket
///    (detailed runs spend their whole life here).
///  * kWarmup   — full detailed timing, stats into a scratch bucket so the
///    cold-state bias right after a fast-forward stretch never enters the
///    measured rates.
///  * kFfwd     — functional fast-forward: no NoC routing, no bank busy
///    windows, no DRAM queueing/timing (row-buffer state still tracks the
///    stream via DramController::warm_touch); stats into the ffwd bucket.
enum class SimPhase : std::uint8_t { kMeasured = 0, kWarmup, kFfwd };

// Structure latencies (paper Table I).
inline constexpr Cycle kL1HitCycles = 2;
inline constexpr Cycle kLlcCycles = 15;
inline constexpr Cycle kDirCycles = 15;
inline constexpr Cycle kMemCycles = 150;  ///< flat off-chip latency of DramModel::kSimple
inline constexpr Cycle kInvalidateWalkCyclesPerLine = 1;  ///< raccd_invalidate L1 walk cost

struct FabricConfig {
  std::uint32_t cores = 16;
  L1Geometry l1{};
  /// The LLC bank's line count is also the energy model's reference size
  /// for both the LLC and the directory (energy/energy_model.hpp).
  LlcGeometry llc{};
  DirGeometry dir{};
  /// Machine shape, grid size and physical frames (a 4x4 flat mesh by
  /// default). The fabric pre-sizes its memory version map from
  /// topo.phys_frames.
  TopologyConfig topo{};
  /// Memory system behind the controllers (dram/dram.hpp). The default
  /// kSimple model reproduces the flat kMemCycles latency byte-identically.
  DramConfig dram{};
};

/// Per-line classification for paper Fig. 2: a block counts as non-coherent
/// iff it is touched and never accessed coherently.
class BlockClassifier {
 public:
  void record(LineAddr line, bool nc);
  [[nodiscard]] std::uint64_t touched_blocks() const noexcept;
  [[nodiscard]] std::uint64_t coherent_blocks() const noexcept;
  [[nodiscard]] std::uint64_t noncoherent_blocks() const noexcept;
  [[nodiscard]] double noncoherent_fraction() const noexcept;

 private:
  static constexpr std::uint8_t kSawNc = 1, kSawCoh = 2;
  std::vector<std::uint8_t> flags_;
};

class Fabric {
 public:
  explicit Fabric(const FabricConfig& cfg, CoherenceChecker* checker = nullptr);

  /// One load/store by core `c` to physical line `line` at time `now`.
  /// `nc` is the caller's classification (NCRT hit, or PT private page).
  AccessOutcome access(CoreId c, LineAddr line, bool is_write, bool nc, Cycle now) {
    const std::uint32_t slot = l1_[c]->slot_of(line);
    return slot != L1Cache::kNoSlot ? access_hit(c, slot, is_write, now)
                                    : access_miss(c, line, is_write, nc, now);
  }
  /// access() split at its L1 probe, for a caller that already probed l1(c)
  /// (the machine's replay loop): `slot` holds c's resident copy of the line...
  AccessOutcome access_hit(CoreId c, std::uint32_t slot, bool is_write, Cycle now);
  /// ...or `line` is absent from c's L1.
  AccessOutcome access_miss(CoreId c, LineAddr line, bool is_write, bool nc, Cycle now);
  /// What a store hit on an E, M or NC line does besides counting and the L1
  /// touch: the silent E->M upgrade and the version bump. access_hit() uses
  /// it for those stores; the machine's pure hits (DESIGN.md, "Conservative
  /// lookahead") do the rest themselves.
  void store_pure_hit(CoreId c, std::uint32_t slot) {
    L1Cache& l1 = *l1_[c];
    L1Payload& hit = l1.at(slot);
    if (hit.coh == Mesi::kExclusive) hit.coh = Mesi::kModified;
    store_version_bump(hit, l1.line(slot));
  }

  /// Account `n` accesses as L1 hits that need no further fabric work: the
  /// run-length-merged repeats whose residency the trace replayer proves
  /// (trace/access_trace.hpp), or a batch of pure hits, summed by the machine
  /// before accounting (exact: the counters commute, and kL1AccessPj is
  /// integral).
  void count_l1_repeat_hits(std::uint64_t n) noexcept { count_l1_hits(st(), n); }
  /// The same for a batch of pure hits of a task in phase `p`, whatever the
  /// current phase: the batch runs outside its own step.
  void count_pure_hits(std::uint64_t n, SimPhase p) noexcept {
    count_l1_hits(p == SimPhase::kMeasured ? stats_
                                           : (p == SimPhase::kWarmup ? warm_stats_ : ffwd_stats_),
                  n);
  }

  /// Called before an event of one core reads or writes core `target`'s L1
  /// lines [first, first + lines), or the TLB entry of the page they fill.
  /// Every such cross-core touch goes through before_remote_touch(): the
  /// recall, owner-probe and sharer-invalidate paths and the PT page flush.
  /// The machine uses it to catch `target` up through its pending pure hits
  /// (DESIGN.md, "Conservative lookahead"); unset, nothing runs.
  struct RemoteTouchHook {
    using Fn = void (*)(void* self, CoreId target, LineAddr first, std::uint32_t lines);
    void* self = nullptr;
    Fn fn = nullptr;
  };
  void set_remote_touch_hook(RemoteTouchHook hook) noexcept { remote_hook_ = hook; }

  /// Select the execution phase for subsequent operations (see SimPhase).
  /// The machine flips this per task; detailed runs never leave kMeasured.
  void set_phase(SimPhase p) noexcept {
    phase_ = p;
    cur_ = p == SimPhase::kMeasured ? &stats_
                                    : (p == SimPhase::kWarmup ? &warm_stats_ : &ffwd_stats_);
    mesh_.set_stats_sink(p == SimPhase::kMeasured ? nullptr : &noc_scratch_);
  }
  [[nodiscard]] SimPhase phase() const noexcept { return phase_; }
  /// Scratch buckets (warmup + ffwd events), for the no-measured-window
  /// fallback and for sampling telemetry.
  [[nodiscard]] const FabricStats& warm_stats() const noexcept { return warm_stats_; }
  [[nodiscard]] const FabricStats& ffwd_stats() const noexcept { return ffwd_stats_; }
  [[nodiscard]] const NocStats& noc_scratch_stats() const noexcept { return noc_scratch_; }

  struct FlushOutcome {
    std::uint64_t lines = 0;       ///< lines invalidated
    std::uint64_t writebacks = 0;  ///< dirty lines written back
    Cycle cycles = 0;              ///< cost charged to the flushing core
  };

  /// raccd_invalidate: sequentially walk core c's L1 and flush NC lines
  /// (paper §III-C.4). Clean NC lines drop silently; dirty ones write back.
  FlushOutcome flush_nc_lines(CoreId c, Cycle now);

  /// PT recovery: flush all lines of physical page `frame` from core c's L1
  /// (page reclassified private -> shared).
  FlushOutcome flush_page_lines(CoreId c, PageNum frame, Cycle now);

  // -- ADR support -------------------------------------------------------------
  struct ResizeOutcome {
    std::uint32_t moved = 0;
    std::uint32_t displaced = 0;
    Cycle blocked_cycles = 0;
  };
  /// Power directory bank `b` to `new_active_sets`; displaced entries are
  /// recalled. The bank is blocked for the returned window. Must not be
  /// called from inside access() (the sim loop runs ADR between accesses).
  ResizeOutcome resize_dir_bank(BankId b, std::uint32_t new_active_sets, Cycle now);

  /// Banks whose directory occupancy changed since the last call (bitmask,
  /// one bit per bank, up to the 64-core limit); reading clears the mask.
  /// The ADR monitor polls this between accesses.
  [[nodiscard]] std::uint64_t take_dir_occupancy_dirty_mask() noexcept {
    const std::uint64_t m = dir_dirty_mask_;
    dir_dirty_mask_ = 0;
    return m;
  }

  /// Flush time-weighted occupancy integrals at end of simulation.
  void finalize(Cycle end_time);

  // -- Accessors ----------------------------------------------------------------
  [[nodiscard]] const FabricConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Topology& topology() const noexcept { return mesh_.topology(); }
  /// Home LLC/directory bank of a line — owned by the topology (socket-local
  /// interleave on NUMA; the legacy `line & (cores-1)` on one socket).
  [[nodiscard]] BankId home_of(LineAddr line) const noexcept {
    return topology().home_bank(line);
  }
  /// Instantaneous valid/active directory occupancy across `socket`'s banks.
  [[nodiscard]] double socket_dir_occupancy(std::uint32_t socket) const noexcept;
  [[nodiscard]] L1Cache& l1(CoreId c) noexcept { return *l1_[c]; }
  [[nodiscard]] const L1Cache& l1(CoreId c) const noexcept { return *l1_[c]; }
  [[nodiscard]] LlcBank& llc(BankId b) noexcept { return *llc_[b]; }
  [[nodiscard]] const LlcBank& llc(BankId b) const noexcept { return *llc_[b]; }
  [[nodiscard]] DirectoryBank& dir(BankId b) noexcept { return *dir_[b]; }
  [[nodiscard]] const DirectoryBank& dir(BankId b) const noexcept { return *dir_[b]; }
  [[nodiscard]] Mesh& mesh() noexcept { return mesh_; }
  [[nodiscard]] const Mesh& mesh() const noexcept { return mesh_; }
  [[nodiscard]] FabricStats& stats() noexcept { return stats_; }
  [[nodiscard]] const FabricStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BlockClassifier& classifier() const noexcept { return classifier_; }
  [[nodiscard]] std::uint64_t mem_version(LineAddr line) const noexcept;

  /// Average directory occupancy across banks [0,1] (valid after finalize()).
  [[nodiscard]] double avg_dir_occupancy(Cycle end_time) const noexcept;

  /// Attach a simulated-time event trace (obs/trace_sink.hpp); nullptr
  /// detaches. Records coherent<->NC line transitions at the directory and
  /// per-bank DRAM busy spans + queue depths. Pure observation: never
  /// consulted by timing or state transitions.
  void set_obs_trace(obs::TraceSink* sink);

 private:
  struct MissResult {
    Cycle latency = 0;
    bool llc_hit = false;
    std::uint64_t version = 0;
    Mesi grant = Mesi::kShared;
  };

  // Message + energy accounting; returns the message latency.
  Cycle msg(std::uint32_t from, std::uint32_t to, MsgClass cls);
  // Bank occupancy: wait + service; returns wait+service time.
  Cycle bank_service(Cycle& busy_until, Cycle arrive, Cycle service) noexcept;

  void count_dir_access(BankId b);
  void count_llc_touch();

  MissResult coherent_miss(CoreId c, LineAddr line, bool is_write, Cycle now);
  MissResult nc_miss(CoreId c, LineAddr line, bool is_write, Cycle now);
  Cycle upgrade_to_m(CoreId c, LineAddr line, Cycle now);

  /// Invalidate all L1 copies of `line` listed by `e` (skipping `skip`),
  /// writing dirty owner data back into the resident LLC line. Returns the
  /// slowest inval/ack leg (invals run in parallel).
  Cycle recall_sharers(BankId b, LineAddr line, DirPayload& e, CoreId skip, Cycle now);
  /// Remove the LLC line (writing it back to memory if dirty).
  Cycle drop_llc_line(BankId b, LineAddr line, bool due_to_dir, Cycle now);
  /// Evict `line`'s directory entry `victim` (a copy): recall sharers, drop
  /// the LLC line, remove.
  Cycle evict_dir_entry(BankId b, LineAddr line, DirPayload victim, Cycle now);
  /// Fill `line` into its home LLC bank, evicting a victim if needed.
  Cycle llc_fill(BankId b, LineAddr line, bool nc, bool dirty, std::uint64_t version,
                 Cycle now);
  /// Memory fetch legs from home bank b, arriving at the controller as of
  /// `now` + the request leg; returns latency, sets version.
  Cycle mem_fetch(BankId b, LineAddr line, std::uint64_t& version, Cycle now);
  /// Posted writeback to memory: occupies a controller write-queue slot
  /// (kDdr) and accounts the delivery latency into mem_wb_wait_cycles.
  void mem_writeback(BankId b, LineAddr line, std::uint64_t version, Cycle now);
  /// DRAM controller serving node `mc` (kDdr model only).
  [[nodiscard]] DramController& dram_at(std::uint32_t mc);
  void account_dram(const DramOutcome& out, bool is_write);

  void handle_l1_victim(CoreId c, const L1Line& victim, Cycle now);
  void mark_dir_dirty(BankId b, Cycle now);

  void store_version_bump(L1Payload& l, LineAddr line);
  void count_l1_hits(FabricStats& s, std::uint64_t n) noexcept {
    s.l1_accesses += n;
    s.l1_hits += n;
    s.e_l1_pj += static_cast<double>(n) * kL1AccessPj;
  }

  void before_remote_touch(CoreId target, LineAddr first, std::uint32_t lines) {
    if (remote_hook_.fn != nullptr) remote_hook_.fn(remote_hook_.self, target, first, lines);
  }

  FabricConfig cfg_;
  Mesh mesh_;
  std::vector<std::unique_ptr<L1Cache>> l1_;
  std::vector<std::unique_ptr<LlcBank>> llc_;
  std::vector<std::unique_ptr<DirectoryBank>> dir_;
  std::vector<Cycle> dir_busy_;
  std::vector<Cycle> llc_busy_;
  /// One controller per distinct memory-controller tile (per socket on
  /// NUMA); empty under the kSimple model. mc_of_[node] indexes dram_.
  std::vector<DramController> dram_;
  std::vector<std::uint32_t> mc_of_;
  /// Checker shadow version of every line in memory (absent = 0). A paged
  /// direct array makes the per-writeback/per-read lookup a shift+index
  /// instead of a hash probe.
  PagedLineMap mem_versions_;
  std::vector<double> dir_access_pj_;  ///< cached per-bank per-access energy
  /// The stats bucket of the current phase (set_phase): &stats_ in measured
  /// windows and in detailed runs, the scratch buckets otherwise. Every
  /// internal counter/energy update goes through this.
  [[nodiscard]] FabricStats& st() noexcept { return *cur_; }
  FabricStats stats_;       ///< measured bucket (the run totals when detailed)
  FabricStats warm_stats_;  ///< detailed-warmup scratch bucket
  FabricStats ffwd_stats_;  ///< fast-forward scratch bucket
  NocStats noc_scratch_;    ///< warmup NoC traffic (ffwd sends no messages)
  FabricStats* cur_ = &stats_;
  SimPhase phase_ = SimPhase::kMeasured;
  BlockClassifier classifier_;
  CoherenceChecker* checker_;
  RemoteTouchHook remote_hook_{};
  std::uint64_t version_counter_ = 0;
  std::uint64_t dir_dirty_mask_ = 0;

  // -- simulated-time event tracing (null = off; pure observation)
  obs::TraceSink* obs_ = nullptr;
  struct ObsIds {
    std::uint16_t deactivate = 0, reactivate = 0, busy = 0, line = 0,
                  wait = 0, row = 0;
  } obs_ids_{};
  /// Per-(controller, channel) interned counter names ("read_q mc0 ch1").
  std::vector<std::pair<std::uint16_t, std::uint16_t>> obs_q_names_;
  /// Emit the busy span + queue counters for one serviced DRAM request
  /// (arrive = when it reached the controller; ctrl indexes dram_).
  void trace_dram(std::uint32_t ctrl, const DramOutcome& out, Cycle arrive);
};

}  // namespace raccd
