#include "raccd/coherence/fabric.hpp"

#include <algorithm>
#include <unordered_map>

#include "raccd/coherence/checker.hpp"
#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"
#include "raccd/common/format.hpp"
#include "raccd/obs/trace_sink.hpp"

namespace raccd {

namespace {
[[nodiscard]] constexpr std::uint64_t bit(CoreId c) noexcept { return 1ULL << c; }
}  // namespace

// ---------------------------------------------------------------------------
// BlockClassifier
// ---------------------------------------------------------------------------

void BlockClassifier::record(LineAddr line, bool nc) {
  if (line >= flags_.size()) flags_.resize(line + 1, 0);
  flags_[line] |= nc ? kSawNc : kSawCoh;
}
std::uint64_t BlockClassifier::touched_blocks() const noexcept {
  std::uint64_t n = 0;
  for (auto f : flags_) n += (f != 0);
  return n;
}
std::uint64_t BlockClassifier::coherent_blocks() const noexcept {
  std::uint64_t n = 0;
  for (auto f : flags_) n += ((f & kSawCoh) != 0);
  return n;
}
std::uint64_t BlockClassifier::noncoherent_blocks() const noexcept {
  std::uint64_t n = 0;
  for (auto f : flags_) n += (f == kSawNc);  // touched and never coherent
  return n;
}
double BlockClassifier::noncoherent_fraction() const noexcept {
  const std::uint64_t t = touched_blocks();
  return t == 0 ? 0.0 : static_cast<double>(noncoherent_blocks()) / static_cast<double>(t);
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Fabric::Fabric(const FabricConfig& cfg, CoherenceChecker* checker)
    : cfg_(cfg), energy_(cfg.energy), mesh_(cfg.mesh, cfg.topo, cfg.cores),
      checker_(checker) {
  RACCD_ASSERT(is_pow2(cfg_.cores), "core count must be a power of two");
  RACCD_ASSERT(cfg_.cores <= 64, "sharer vector limited to 64 cores");
  RACCD_ASSERT(mesh_.node_count() == cfg_.cores, "mesh geometry must match core count");
  const std::uint32_t bank_bits = log2_exact(cfg_.cores);
  FabricConfig fixed = cfg_;
  fixed.llc.bank_bits = bank_bits;
  fixed.dir.bank_bits = bank_bits;
  cfg_ = fixed;
  for (std::uint32_t c = 0; c < cfg_.cores; ++c) {
    l1_.push_back(std::make_unique<L1Cache>(cfg_.l1));
    llc_.push_back(std::make_unique<LlcBank>(cfg_.llc));
    dir_.push_back(std::make_unique<DirectoryBank>(cfg_.dir));
    dir_access_pj_.push_back(energy_.dir_access_pj(dir_[c]->active_entries()));
  }
  dir_busy_.assign(cfg_.cores, 0);
  llc_busy_.assign(cfg_.cores, 0);
  if (cfg_.dram.model != DramModel::kSimple) {
    // One DramController per distinct memory-controller tile (NUMA sockets
    // each get their own); mc_of_ resolves a controller node to its index.
    mc_of_.assign(cfg_.cores, 0);
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    for (std::uint32_t n = 0; n < cfg_.cores; ++n) {
      const std::uint32_t mc = mesh_.nearest_memory_controller(n);
      const auto [it, inserted] =
          index.try_emplace(mc, static_cast<std::uint32_t>(dram_.size()));
      if (inserted) dram_.emplace_back(cfg_.dram);
      mc_of_[mc] = it->second;
    }
  }
  // Only the paged array's chunk directory scales with the hint (one pointer
  // per 4096 lines); data chunks allocate on first write to their region.
  mem_versions_.reserve_lines(cfg_.phys_lines_hint);
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

Cycle Fabric::msg(std::uint32_t from, std::uint32_t to, MsgClass cls) {
  if (phase_ == SimPhase::kFfwd) return 0;  // functional: no routing, no traffic
  const Route r = topology().route(from, to);
  const std::uint32_t flits = mesh_.flits_for(cls);
  // Inter-socket hops burn `socket_hop_energy_scale` times the on-chip
  // per-flit-hop energy (off-package SerDes links).
  const double hop_cost =
      static_cast<double>(r.link_hops) +
      static_cast<double>(r.socket_hops) * topology().config().socket_hop_energy_scale;
  st().e_noc_pj += hop_cost * flits * energy_.noc_flit_hop_pj();
  return mesh_.transfer(r, cls);
}

Cycle Fabric::bank_service(Cycle& busy_until, Cycle arrive, Cycle service) noexcept {
  if (phase_ == SimPhase::kFfwd) return 0;  // functional: no busy windows
  const Cycle start = std::max(arrive, busy_until);
  busy_until = start + service;
  return (start - arrive) + service;
}

void Fabric::count_dir_access(BankId b) {
  ++st().dir_accesses;
  st().e_dir_pj += dir_access_pj_[b];
}

void Fabric::count_llc_touch(BankId b) {
  ++st().llc_touches;
  st().e_llc_pj += energy_.llc_access_pj(llc_[b]->line_capacity());
}

void Fabric::mark_dir_dirty(BankId b, Cycle now) {
  dir_[b]->occupancy_tick(now);
  dir_dirty_mask_ |= (1ULL << b);
}

std::uint64_t Fabric::mem_version(LineAddr line) const noexcept {
  return mem_versions_.get(line);
}

void Fabric::store_version_bump(L1Line& l, LineAddr line) {
  l.version = ++version_counter_;
  l.dirty = true;
  if (checker_ != nullptr) checker_->on_store(line, l.version);
}

// ---------------------------------------------------------------------------
// Recall / eviction machinery
// ---------------------------------------------------------------------------

Cycle Fabric::recall_sharers(BankId b, DirEntry& e, CoreId skip, Cycle now) {
  (void)now;
  Cycle slowest = 0;
  std::uint64_t remaining = e.sharers;
  while (remaining != 0) {
    const CoreId s = static_cast<CoreId>(std::countr_zero(remaining));
    remaining &= remaining - 1;
    if (s == skip) continue;
    Cycle leg = msg(b, s, MsgClass::kInval);
    ++st().dir_recall_msgs;
    before_remote_touch(s, e.line, 1);
    const L1Line old = l1_[s]->invalidate(e.line);
    if (old.valid) {
      ++st().l1_invals_recall;
      if (old.dirty) {
        // Owner held M: pull the data back into the (still resident) LLC line.
        LlcLine* ll = llc_[b]->find(e.line);
        RACCD_ASSERT(ll != nullptr, "dirty recall without resident LLC line");
        ll->dirty = true;
        ll->version = old.version;
        count_llc_touch(b);
        leg += msg(s, b, MsgClass::kWriteback);
        ++st().l1_wb_coh;
      } else {
        leg += msg(s, b, MsgClass::kAck);
      }
    } else {
      leg += msg(s, b, MsgClass::kAck);  // silently evicted: stale sharer bit
    }
    slowest = std::max(slowest, leg);
  }
  e.sharers = (skip != kNoCore && (e.sharers & bit(skip)) != 0) ? bit(skip) : 0;
  e.excl = kNoCore;
  return slowest;
}

Cycle Fabric::drop_llc_line(BankId b, LineAddr line, bool due_to_dir, Cycle now) {
  const LlcLine dead = llc_[b]->invalidate(line);
  RACCD_ASSERT(dead.valid, "dropping a non-resident LLC line");
  count_llc_touch(b);
  if (due_to_dir) ++st().llc_inval_by_dir;
  Cycle lat = 0;
  if (dead.dirty) {
    mem_writeback(b, line, dead.version, now);
    ++st().llc_wb_mem;
    lat += 0;  // writeback drains off the critical path
  }
  return lat;
}

Cycle Fabric::evict_dir_entry(BankId b, const DirEntry& victim, Cycle now) {
  DirEntry copy = victim;
  Cycle lat = recall_sharers(b, copy, kNoCore, now);
  lat += drop_llc_line(b, victim.line, /*due_to_dir=*/true, now + lat);
  mark_dir_dirty(b, now);
  const bool removed = dir_[b]->remove(victim.line);
  RACCD_ASSERT(removed, "directory victim vanished during recall");
  count_dir_access(b);
  ++st().dir_evictions;
  return lat;
}

Cycle Fabric::llc_fill(BankId b, LineAddr line, bool nc, bool dirty, std::uint64_t version,
                       Cycle now) {
  Cycle lat = 0;
  const LlcLine victim = llc_[b]->peek_victim(line);
  if (victim.valid) {
    ++st().llc_evictions;
    const DirEntry* ve = victim.nc ? nullptr : dir_[b]->find(victim.line);
    if (ve != nullptr) {
      // Tracked coherent victim: recall the L1 copies and free its entry
      // (LLC capacity pressure shrinking directory occupancy, paper Fig. 8).
      count_dir_access(b);
      lat += evict_dir_entry(b, *ve, now);
    } else {
      // NC line or untracked coherent line: plain eviction.
      lat += drop_llc_line(b, victim.line, /*due_to_dir=*/false, now + lat);
    }
  }
  llc_[b]->fill(line, nc, dirty, version);
  count_llc_touch(b);
  ++st().llc_fills;
  return lat;
}

void Fabric::set_obs_trace(obs::TraceSink* sink) {
  obs_ = sink;
  obs_q_names_.clear();
  if (sink == nullptr) return;
  obs_ids_.deactivate = sink->intern("line_deactivate");
  obs_ids_.reactivate = sink->intern("line_reactivate");
  obs_ids_.busy = sink->intern("bank_busy");
  obs_ids_.line = sink->intern("line");
  obs_ids_.wait = sink->intern("wait");
  obs_ids_.row = sink->intern("row");
  const std::uint32_t chs = cfg_.dram.channels, bks = cfg_.dram.banks;
  for (std::uint32_t ctrl = 0; ctrl < dram_.size(); ++ctrl) {
    for (std::uint32_t ch = 0; ch < chs; ++ch) {
      obs_q_names_.emplace_back(
          sink->intern(strprintf("read_q mc%u ch%u", ctrl, ch)),
          sink->intern(strprintf("write_q mc%u ch%u", ctrl, ch)));
      for (std::uint32_t bk = 0; bk < bks; ++bk) {
        sink->set_thread_name(obs::kPidDram, ctrl * chs * bks + ch * bks + bk,
                              strprintf("mc%u ch%u bk%u", ctrl, ch, bk));
      }
    }
  }
  for (BankId b = 0; b < cfg_.cores; ++b) {
    sink->set_thread_name(obs::kPidCoherence, b, strprintf("bank %u", b));
  }
}

void Fabric::trace_dram(std::uint32_t ctrl, const DramOutcome& out, Cycle arrive) {
  // Busy span on the bank's own track: [service start, data done]. Queue
  // depths step on the channel's counter tracks at the same instant.
  const std::uint32_t chs = cfg_.dram.channels, bks = cfg_.dram.banks;
  const std::uint32_t tid = ctrl * chs * bks + out.channel * bks + out.bank;
  const Cycle at = arrive + out.wait;
  obs_->complete(obs::TraceCat::kDram, obs::kPidDram, tid, obs_ids_.busy, at,
                 out.latency, obs_ids_.wait, out.wait, obs_ids_.row,
                 static_cast<std::uint64_t>(out.row));
  const auto& qn = obs_q_names_[ctrl * chs + out.channel];
  obs_->counter(obs::TraceCat::kDram, obs::kPidDram, 0, qn.first, at, out.read_depth);
  obs_->counter(obs::TraceCat::kDram, obs::kPidDram, 0, qn.second, at, out.write_depth);
}

DramController& Fabric::dram_at(std::uint32_t mc) {
  RACCD_DEBUG_ASSERT(!dram_.empty(), "DRAM model disabled");
  return dram_[mc_of_[mc]];
}

void Fabric::account_dram(const DramOutcome& out, bool is_write) {
  switch (out.row) {
    case DramOutcome::Row::kHit: ++st().dram_row_hits; break;
    case DramOutcome::Row::kEmpty: ++st().dram_row_misses; break;
    case DramOutcome::Row::kConflict: ++st().dram_row_conflicts; break;
  }
  double pj = is_write ? energy_.dram_write_pj() : energy_.dram_read_pj();
  (is_write ? st().e_mem_wr_pj : st().e_mem_rd_pj) += pj;
  if (out.activated) {
    st().e_mem_act_pj += energy_.dram_activate_pj();
    pj += energy_.dram_activate_pj();
  }
  if (out.precharged) {
    st().e_mem_pre_pj += energy_.dram_precharge_pj();
    pj += energy_.dram_precharge_pj();
  }
  st().e_mem_pj += pj;  // e_mem_pj stays the memory total under both models
}

Cycle Fabric::mem_fetch(BankId b, LineAddr line, std::uint64_t& version, Cycle now) {
  const std::uint32_t mc = mesh_.nearest_memory_controller(b);
  ++st().mem_reads;
  version = mem_version(line);
  if (phase_ == SimPhase::kFfwd) {
    // Functional: keep the row-buffer stream warm, skip queue/bus timing.
    if (cfg_.dram.model != DramModel::kSimple) dram_at(mc).warm_touch(line);
    return 0;
  }
  Cycle lat = msg(b, mc, MsgClass::kRequest);
  if (cfg_.dram.model == DramModel::kSimple) {
    lat += cfg_.mem_cycles;
    st().e_mem_pj += energy_.mem_access_pj();
  } else {
    const Cycle arrive = now + lat;
    const DramOutcome out = dram_at(mc).read(line, arrive);
    lat += out.total();
    st().dram_queue_wait_cycles += out.wait;
    account_dram(out, /*is_write=*/false);
    if (obs_ != nullptr && obs_->wants(obs::TraceCat::kDram)) {
      trace_dram(mc_of_[mc], out, arrive);
    }
  }
  lat += msg(mc, b, MsgClass::kResponseData);
  return lat;
}

void Fabric::mem_writeback(BankId b, LineAddr line, std::uint64_t version, Cycle now) {
  const std::uint32_t mc = mesh_.nearest_memory_controller(b);
  // Posted write: the requester never waits. Under kDdr the delivery leg
  // and write-queue wait are accounted (mem_wb_wait_cycles) instead of
  // dropped, and the write occupies a queue slot that backpressures later
  // reads; kSimple keeps the legacy fire-and-forget stats byte-identical
  // (warm pre-DRAM cache entries stay consistent with fresh runs).
  const Cycle leg = msg(b, mc, MsgClass::kWriteback);
  ++st().mem_writes;
  if (phase_ == SimPhase::kFfwd) {
    if (cfg_.dram.model != DramModel::kSimple) dram_at(mc).warm_touch(line);
  } else if (cfg_.dram.model == DramModel::kSimple) {
    st().e_mem_pj += energy_.mem_access_pj();
  } else {
    const DramOutcome out = dram_at(mc).write(line, now + leg);
    st().mem_wb_wait_cycles += leg + out.wait;
    account_dram(out, /*is_write=*/true);
    if (obs_ != nullptr && obs_->wants(obs::TraceCat::kDram)) {
      trace_dram(mc_of_[mc], out, now + leg);
    }
  }
  mem_versions_.set(line, version);
}

void Fabric::handle_l1_victim(CoreId c, const L1Line& victim, Cycle now) {
  ++st().l1_evictions;
  if (!victim.dirty) return;  // silent clean eviction (paper Table I)
  const BankId b = home_of(victim.line);
  if (victim.nc) {
    // NC writeback: straight to the LLC; if the LLC lost the line, forward
    // to memory without re-allocating (paper §III-C.3).
    (void)msg(c, b, MsgClass::kWriteback);
    ++st().l1_wb_nc;
    LlcLine* ll = llc_[b]->find(victim.line);
    count_llc_touch(b);
    if (ll != nullptr) {
      ll->dirty = true;
      ll->version = victim.version;
    } else {
      mem_writeback(b, victim.line, victim.version, now);
      ++st().llc_wb_mem;
    }
  } else {
    // Coherent M writeback: update LLC data and directory sharing state.
    (void)msg(c, b, MsgClass::kWriteback);
    ++st().l1_wb_coh;
    DirEntry* e = dir_[b]->find(victim.line);
    count_dir_access(b);
    ++st().dir_wb_updates;
    RACCD_ASSERT(e != nullptr, "M writeback without directory entry");
    if (e->excl == c) e->excl = kNoCore;
    e->sharers &= ~bit(c);
    LlcLine* ll = llc_[b]->find(victim.line);
    RACCD_ASSERT(ll != nullptr, "M writeback without LLC line");
    count_llc_touch(b);
    ll->dirty = true;
    ll->version = victim.version;
  }
}

// ---------------------------------------------------------------------------
// Miss paths
// ---------------------------------------------------------------------------

Fabric::MissResult Fabric::coherent_miss(CoreId c, LineAddr line, bool is_write, Cycle now) {
  const BankId b = home_of(line);
  if (topology().cross_socket(c, b)) ++st().dir_reqs_cross_socket;
  MissResult r;
  r.latency += msg(c, b, MsgClass::kRequest);
  // The home node looks up directory and LLC tags in parallel.
  {
    const Cycle arrive = now + r.latency;
    const Cycle dir_leg = bank_service(dir_busy_[b], arrive, cfg_.dir_cycles);
    const Cycle llc_leg = bank_service(llc_busy_[b], arrive, cfg_.llc_cycles);
    r.latency += std::max(dir_leg, llc_leg);
  }
  count_dir_access(b);
  ++st().dir_lookups;
  count_llc_touch(b);
  ++st().llc_lookups;

  DirEntry* e = dir_[b]->find(line);
  if (e != nullptr) {
    ++st().dir_hits;
    dir_[b]->touch(*e);
    if (e->excl != kNoCore) {
      // Probe the E/M holder (it may have silently evicted an E line).
      const CoreId o = e->excl;
      ++st().owner_probes;
      Cycle leg = msg(b, o, MsgClass::kInval);
      before_remote_touch(o, line, 1);
      L1Line* ol = l1_[o]->find(line);
      if (ol != nullptr) {
        if (is_write) {
          const L1Line old = l1_[o]->invalidate(line);
          ++st().l1_invals_sharer;
          if (old.dirty) {
            LlcLine* ll = llc_[b]->find(line);
            RACCD_ASSERT(ll != nullptr, "owner WB without LLC line");
            ll->dirty = true;
            ll->version = old.version;
            count_llc_touch(b);
            leg += msg(o, b, MsgClass::kWriteback);
            ++st().l1_wb_coh;
          } else {
            leg += msg(o, b, MsgClass::kAck);
          }
          e->sharers &= ~bit(o);
        } else {
          // Downgrade to S; dirty data returns to the LLC.
          if (ol->dirty) {
            LlcLine* ll = llc_[b]->find(line);
            RACCD_ASSERT(ll != nullptr, "owner WB without LLC line");
            ll->dirty = true;
            ll->version = ol->version;
            count_llc_touch(b);
            leg += msg(o, b, MsgClass::kWriteback);
            ++st().l1_wb_coh;
            ol->dirty = false;
          } else {
            leg += msg(o, b, MsgClass::kAck);
          }
          ol->coh = Mesi::kShared;
        }
      } else {
        leg += msg(o, b, MsgClass::kAck);  // silent eviction: stale owner
        e->sharers &= ~bit(o);
      }
      e->excl = kNoCore;
      r.latency += leg;
    }
    if (is_write && (e->sharers & ~bit(c)) != 0) {
      // Invalidate remaining sharers in parallel; pay the slowest leg.
      Cycle slowest = 0;
      std::uint64_t remaining = e->sharers & ~bit(c);
      while (remaining != 0) {
        const CoreId s = static_cast<CoreId>(std::countr_zero(remaining));
        remaining &= remaining - 1;
        Cycle leg = msg(b, s, MsgClass::kInval);
        before_remote_touch(s, line, 1);
        const L1Line old = l1_[s]->invalidate(line);
        if (old.valid) {
          RACCD_ASSERT(!old.dirty, "dirty sharer outside excl state");
          ++st().l1_invals_sharer;
        }
        leg += msg(s, b, MsgClass::kAck);
        slowest = std::max(slowest, leg);
      }
      r.latency += slowest;
    }
    // Serve data from the LLC (a tracked line is always LLC-resident: LLC
    // evictions recall the entry and directory evictions invalidate the line).
    LlcLine* ll = llc_[b]->find(line);
    RACCD_ASSERT(ll != nullptr, "directory entry without LLC line");
    ++st().llc_hits;
    llc_[b]->touch(*ll);
    r.llc_hit = true;
    r.version = ll->version;
    if (is_write) {
      e->sharers = bit(c);
      e->excl = c;
      r.grant = Mesi::kModified;
    } else {
      e->sharers |= bit(c);
      if (e->sharers == bit(c)) {
        e->excl = c;
        r.grant = Mesi::kExclusive;
      } else {
        r.grant = Mesi::kShared;
      }
    }
  } else {
    // Sparse directory: entries track lines with (possible) private-cache
    // copies. A new L1 fill allocates one, recalling a victim if the set is
    // full (the recall also invalidates the victim's LLC line — the
    // mechanism behind FullCoh's LLC degradation, paper §V-A.3). LLC lines
    // without L1 copies live untracked.
    ++st().dir_misses;
    if (!dir_[b]->has_free_way(line)) {
      const DirEntry victim = dir_[b]->peek_victim(line);
      r.latency += evict_dir_entry(b, victim, now + r.latency);
    }
    mark_dir_dirty(b, now + r.latency);
    DirEntry& ne = dir_[b]->alloc(line);
    count_dir_access(b);
    ++st().dir_allocs;

    LlcLine* ll = llc_[b]->find(line);
    if (ll != nullptr) {
      ++st().llc_hits;
      if (ll->nc) {
        // NC -> coherent transition (paper §III-E): start tracking.
        ll->nc = false;
        ++st().dir_nc_to_coh;
        if (obs_ != nullptr && obs_->wants(obs::TraceCat::kCoh)) {
          obs_->instant(obs::TraceCat::kCoh, obs::kPidCoherence, b,
                        obs_ids_.reactivate, now + r.latency, obs_ids_.line, line);
        }
      }
      llc_[b]->touch(*ll);
      r.llc_hit = true;
      r.version = ll->version;
    } else {
      ++st().llc_misses;
      r.latency += mem_fetch(b, line, r.version, now + r.latency);
      r.latency += llc_fill(b, line, /*nc=*/false, /*dirty=*/false, r.version,
                            now + r.latency);
    }
    ne.sharers = bit(c);
    ne.excl = c;
    r.grant = is_write ? Mesi::kModified : Mesi::kExclusive;
  }
  r.latency += msg(b, c, MsgClass::kResponseData);
  return r;
}

Fabric::MissResult Fabric::nc_miss(CoreId c, LineAddr line, bool is_write, Cycle now) {
  const BankId b = home_of(line);
  if (topology().cross_socket(c, b)) ++st().nc_reqs_cross_socket;
  MissResult r;
  r.grant = Mesi::kInvalid;
  r.latency += msg(c, b, MsgClass::kRequest);
  r.latency += bank_service(llc_busy_[b], now + r.latency, cfg_.llc_cycles);
  ++st().llc_lookups;
  ++st().llc_nc_lookups;
  LlcLine* ll = llc_[b]->find(line);
  count_llc_touch(b);
  if (ll != nullptr) {
    ++st().llc_hits;
    ++st().llc_nc_hits;
    if (!ll->nc) {
      // Coherent -> NC transition (paper §III-E): if the line is tracked,
      // pull any dirty owner data into the LLC and deallocate the entry;
      // untracked lines simply re-tag without touching the directory.
      DirEntry* e = dir_[b]->find(line);
      if (e != nullptr) {
        count_dir_access(b);
        r.latency += recall_sharers(b, *e, kNoCore, now + r.latency);
        mark_dir_dirty(b, now + r.latency);
        dir_[b]->remove(line);
        count_dir_access(b);
        ++st().dir_coh_to_nc;
      }
      ll->nc = true;
      if (obs_ != nullptr && obs_->wants(obs::TraceCat::kCoh)) {
        obs_->instant(obs::TraceCat::kCoh, obs::kPidCoherence, b,
                      obs_ids_.deactivate, now + r.latency, obs_ids_.line, line);
      }
    }
    llc_[b]->touch(*ll);
    r.llc_hit = true;
    r.version = ll->version;
  } else {
    ++st().llc_misses;
    r.latency += mem_fetch(b, line, r.version, now + r.latency);
    r.latency += llc_fill(b, line, /*nc=*/true, /*dirty=*/false, r.version,
                          now + r.latency);
  }
  r.latency += msg(b, c, MsgClass::kResponseData);
  (void)is_write;
  return r;
}

Cycle Fabric::upgrade_to_m(CoreId c, LineAddr line, Cycle now) {
  const BankId b = home_of(line);
  if (topology().cross_socket(c, b)) ++st().dir_reqs_cross_socket;
  Cycle lat = msg(c, b, MsgClass::kRequest);
  lat += bank_service(dir_busy_[b], now + lat, cfg_.dir_cycles);
  count_dir_access(b);
  ++st().dir_lookups;
  ++st().upgrades;
  DirEntry* e = dir_[b]->find(line);
  RACCD_ASSERT(e != nullptr, "upgrade from S without directory entry");
  ++st().dir_hits;
  dir_[b]->touch(*e);
  RACCD_ASSERT(e->excl == kNoCore || e->excl == c,
               "S copy coexisting with a foreign exclusive owner");
  Cycle slowest = 0;
  std::uint64_t remaining = e->sharers & ~bit(c);
  while (remaining != 0) {
    const CoreId s = static_cast<CoreId>(std::countr_zero(remaining));
    remaining &= remaining - 1;
    Cycle leg = msg(b, s, MsgClass::kInval);
    before_remote_touch(s, line, 1);
    const L1Line old = l1_[s]->invalidate(line);
    if (old.valid) {
      RACCD_ASSERT(!old.dirty, "dirty sharer outside excl state");
      ++st().l1_invals_sharer;
    }
    leg += msg(s, b, MsgClass::kAck);
    slowest = std::max(slowest, leg);
  }
  lat += slowest;
  e->sharers = bit(c);
  e->excl = c;
  lat += msg(b, c, MsgClass::kAck);
  return lat;
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

AccessOutcome Fabric::access_hit(CoreId c, L1Line& hit, bool is_write, Cycle now) {
  RACCD_DEBUG_ASSERT(l1_[c]->find(hit.line) == &hit, "hit on a line not resident in c's L1");
  count_l1_repeat_hits(1);
  l1_[c]->touch(hit);
  const LineAddr line = hit.line;
  Cycle lat = cfg_.l1_hit_cycles;
  if (!is_write) {
    if (checker_ != nullptr) checker_->on_load(line, hit.version);
    return AccessOutcome{lat, true, false};
  }
  if (hit.nc) {
    store_version_bump(hit, line);
  } else {
    switch (hit.coh) {
      case Mesi::kModified:
        store_version_bump(hit, line);
        break;
      case Mesi::kExclusive:
        hit.coh = Mesi::kModified;  // silent E->M upgrade
        store_version_bump(hit, line);
        break;
      case Mesi::kShared:
        lat += upgrade_to_m(c, line, now + lat);
        hit.coh = Mesi::kModified;
        store_version_bump(hit, line);
        break;
      case Mesi::kInvalid:
        RACCD_ASSERT(false, "valid coherent line in I state");
        break;
    }
  }
  return AccessOutcome{lat, true, false};
}

AccessOutcome Fabric::access_miss(CoreId c, LineAddr line, bool is_write, bool nc,
                                  Cycle now) {
  RACCD_DEBUG_ASSERT(c < cfg_.cores, "core id out of range");
  ++st().l1_accesses;
  st().e_l1_pj += energy_.l1_access_pj();
  ++st().l1_misses;
  // Misses alone feed the block classifier: an L1 line's NC bit is written
  // only by the fill below, so a later hit would record the same bit again.
  classifier_.record(line, nc);
  if (nc) {
    is_write ? ++st().nc_writes : ++st().nc_reads;
  } else {
    is_write ? ++st().coh_writes : ++st().coh_reads;
  }
  Cycle lat = cfg_.l1_hit_cycles;
  const MissResult r =
      nc ? nc_miss(c, line, is_write, now + lat) : coherent_miss(c, line, is_write, now + lat);
  lat += r.latency;

  L1Line* nl = nullptr;
  const L1Line victim = l1_[c]->fill(line, nc, r.grant, /*dirty=*/false, r.version, &nl);
  if (victim.valid) handle_l1_victim(c, victim, now + lat);
  if (is_write) {
    store_version_bump(*nl, line);
  } else if (checker_ != nullptr) {
    checker_->on_load(line, nl->version);
  }
  return AccessOutcome{lat, false, r.llc_hit};
}

Fabric::FlushOutcome Fabric::flush_nc_lines(CoreId c, Cycle now) {
  FlushOutcome out;
  L1Cache& l1c = *l1_[c];
  // The modelled walk is sequential over the whole array (paper §III-C.4);
  // the host visits only the slots holding NC fills, in the same order.
  out.cycles = static_cast<Cycle>(l1c.line_capacity()) * cfg_.invalidate_walk_cycles_per_line;
  l1c.drop_nc_lines([&](const L1Line& old) {
    const LineAddr line = old.line;
    ++out.lines;
    ++st().l1_flush_nc_lines;
    if (old.dirty) {
      ++out.writebacks;
      ++st().l1_flush_nc_wbs;
      const BankId b = home_of(line);
      (void)msg(c, b, MsgClass::kWriteback);
      ++st().l1_wb_nc;
      LlcLine* ll = llc_[b]->find(line);
      count_llc_touch(b);
      if (ll != nullptr) {
        ll->dirty = true;
        ll->version = old.version;
      } else {
        mem_writeback(b, line, old.version, now + out.cycles);
        ++st().llc_wb_mem;
      }
    }
  });
  return out;
}

Fabric::FlushOutcome Fabric::flush_page_lines(CoreId c, PageNum frame, Cycle now) {
  FlushOutcome out;
  L1Cache& l1c = *l1_[c];
  const LineAddr first = frame << (kPageShift - kLineShift);
  // One touch covers the whole page: its lines here, and the TLB entry the
  // PT recovery shoots down right after (every access to the page lands in
  // these lines).
  before_remote_touch(c, first, kLinesPerPage);
  for (std::uint32_t i = 0; i < kLinesPerPage; ++i) {
    const LineAddr line = first + i;
    out.cycles += 1;  // one tag probe per line of the page
    const L1Line old = l1c.invalidate(line);
    if (!old.valid) continue;
    ++out.lines;
    ++st().l1_flush_page_lines;
    if (old.dirty) {
      ++out.writebacks;
      ++st().l1_flush_page_wbs;
      const BankId b = home_of(line);
      (void)msg(c, b, MsgClass::kWriteback);
      if (old.nc) {
        ++st().l1_wb_nc;
        LlcLine* ll = llc_[b]->find(line);
        count_llc_touch(b);
        if (ll != nullptr) {
          ll->dirty = true;
          ll->version = old.version;
        } else {
          mem_writeback(b, line, old.version, now + out.cycles);
          ++st().llc_wb_mem;
        }
      } else {
        // Coherent M line of a reclassifying page.
        ++st().l1_wb_coh;
        DirEntry* e = dir_[home_of(line)]->find(line);
        count_dir_access(b);
        RACCD_ASSERT(e != nullptr, "M flush without directory entry");
        if (e->excl == c) e->excl = kNoCore;
        e->sharers &= ~bit(c);
        LlcLine* ll = llc_[b]->find(line);
        RACCD_ASSERT(ll != nullptr, "M flush without LLC line");
        count_llc_touch(b);
        ll->dirty = true;
        ll->version = old.version;
      }
    }
  }
  return out;
}

Fabric::ResizeOutcome Fabric::resize_dir_bank(BankId b, std::uint32_t new_active_sets,
                                              Cycle now) {
  ResizeOutcome out;
  mark_dir_dirty(b, now);
  std::vector<DirEntry> displaced;
  out.moved = dir_[b]->resize(new_active_sets, displaced);
  out.displaced = static_cast<std::uint32_t>(displaced.size());
  for (DirEntry& e : displaced) {
    // Conflict overflow under the new indexing: recall like an eviction.
    (void)recall_sharers(b, e, kNoCore, now);
    (void)drop_llc_line(b, e.line, /*due_to_dir=*/true, now);
    ++st().dir_evictions;
  }
  // The reconfiguration blocks the bank while entries move (paper §III-D).
  out.blocked_cycles = static_cast<Cycle>(out.moved) * 2 + 100;
  dir_busy_[b] = std::max(dir_busy_[b], now) + out.blocked_cycles;
  dir_access_pj_[b] = energy_.dir_access_pj(dir_[b]->active_entries());
  return out;
}

void Fabric::finalize(Cycle end_time) {
  for (auto& d : dir_) d->occupancy_tick(end_time);
}

double Fabric::socket_dir_occupancy(std::uint32_t socket) const noexcept {
  const Topology& topo = topology();
  std::uint64_t valid = 0, active = 0;
  for (BankId b = socket * topo.cores_per_socket();
       b < (socket + 1) * topo.cores_per_socket(); ++b) {
    valid += dir_[b]->valid_entries();
    active += dir_[b]->active_entries();
  }
  return active == 0 ? 0.0 : static_cast<double>(valid) / static_cast<double>(active);
}

double Fabric::avg_dir_occupancy(Cycle end_time) const noexcept {
  if (end_time == 0) return 0.0;
  double sum = 0.0;
  for (const auto& d : dir_) {
    // Normalize against the *configured* capacity (paper Fig. 8 reports
    // occupancy of the 1:1 directory).
    const double cap = static_cast<double>(d->total_sets()) * d->ways();
    sum += d->occupancy_integral() / (static_cast<double>(end_time) * cap);
  }
  return sum / static_cast<double>(dir_.size());
}

}  // namespace raccd
