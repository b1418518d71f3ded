#include "raccd/dram/dram.hpp"

#include <algorithm>

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"
#include "raccd/common/format.hpp"

namespace raccd {
namespace {

static_assert(is_pow2(kDramRowBytes / kLineBytes),
              "DRAM row must hold a power-of-two number of lines");
/// Line-address bits of the column within a row.
constexpr unsigned kRowLineBits = log2_exact(kDramRowBytes / kLineBytes);

}  // namespace

DramController::DramController(const DramConfig& cfg) : cfg_(cfg) {
  RACCD_ASSERT(is_pow2(cfg_.channels), "DRAM channel count must be a power of two");
  RACCD_ASSERT(is_pow2(cfg_.banks), "DRAM bank count must be a power of two");
  ch_bits_ = log2_exact(cfg_.channels);
  bank_bits_ = log2_exact(cfg_.banks);
  channels_.resize(cfg_.channels);
  for (Channel& ch : channels_) {
    ch.banks.resize(cfg_.banks);
    ch.read_q.reserve(kDramReadQueueSlots);
    ch.write_q.reserve(cfg_.write_queue_slots);
  }
}

Cycle DramController::wait_for_slot(std::vector<Cycle>& q, std::uint32_t slots,
                                    Cycle t) {
  // Entries are completion times of in-flight requests; drop the finished
  // ones, then drain the earliest completer until a slot frees up.
  std::erase_if(q, [t](Cycle done) { return done <= t; });
  while (q.size() >= slots) {
    const auto earliest = std::min_element(q.begin(), q.end());
    t = std::max(t, *earliest);
    q.erase(earliest);
  }
  return t;
}

DramOutcome DramController::service(LineAddr line, Cycle arrive, bool is_write) {
  // Address mapping: line-interleaved channels, then row:bank:column — a row
  // is kDramRowBytes of consecutive lines, consecutive rows rotate banks, so
  // streaming access row-hits within a row and spreads across banks.
  const std::uint32_t ch_idx = static_cast<std::uint32_t>(line & (cfg_.channels - 1));
  Channel& ch = channels_[ch_idx];
  const std::uint64_t col = line >> ch_bits_;
  const std::uint32_t bank_idx =
      static_cast<std::uint32_t>((col >> kRowLineBits) & (cfg_.banks - 1));
  Bank& bank = ch.banks[bank_idx];
  const std::uint64_t row = col >> (kRowLineBits + bank_bits_);

  DramOutcome out;
  out.channel = ch_idx;
  out.bank = bank_idx;
  Cycle start = arrive;
  // Writebacks occupy write-queue slots that backpressure reads: a full
  // write queue forces a drain before *any* request issues.
  start = wait_for_slot(ch.write_q, cfg_.write_queue_slots, start);
  if (!is_write) start = wait_for_slot(ch.read_q, kDramReadQueueSlots, start);

  const bool hit = bank.open && bank.row == row;
  const bool conflict = bank.open && bank.row != row;
  // FR-FCFS lets a row hit issue as soon as its bank and bus allow; FCFS
  // (and any non-hit) honors the channel's in-order issue point.
  if (cfg_.sched == DramSched::kFcfs || !hit) start = std::max(start, ch.last_start);
  start = std::max(start, bank.busy_until);

  Cycle lat = 0;
  if (conflict) {
    // The open row must precharge first; a young row also waits out tRAS.
    const Cycle pre_at = std::max(start, bank.ras_ready);
    lat = (pre_at - start) + kDramTRp;
    out.precharged = true;
  }
  if (!hit) {
    lat += kDramTRcd;
    out.activated = true;
  }
  lat += kDramTCas;
  // The burst serializes on the channel data bus — except that FR-FCFS lets
  // a row hit's burst slip into an idle bus slot ahead of a slower earlier
  // request (the reordering that makes the policy pay).
  Cycle done = start + lat + kDramTBurst;
  const bool bypass = cfg_.sched == DramSched::kFrFcfs && hit;
  if (!bypass) done = std::max(done, ch.bus_busy_until + kDramTBurst);
  ch.bus_busy_until = std::max(ch.bus_busy_until, done);
  if (out.activated) bank.ras_ready = (done - kDramTBurst - kDramTCas) + kDramTRas;

  bank.row = row;
  bank.open = true;
  bank.busy_until = done;
  if (cfg_.page == PagePolicy::kClosed) {
    // Auto-precharge after every access: the bank reopens from scratch.
    bank.busy_until = done + kDramTRp;
    bank.open = false;
    out.precharged = true;
  }
  ch.last_start = std::max(ch.last_start, start);
  (is_write ? ch.write_q : ch.read_q).push_back(done);
  out.read_depth = static_cast<std::uint32_t>(ch.read_q.size());
  out.write_depth = static_cast<std::uint32_t>(ch.write_q.size());

  out.wait = start - arrive;
  out.latency = done - start;
  out.row = hit ? DramOutcome::Row::kHit
                : (conflict ? DramOutcome::Row::kConflict : DramOutcome::Row::kEmpty);
  return out;
}

void DramController::warm_touch(LineAddr line) noexcept {
  // Same address mapping as service(), state transitions only: no busy
  // windows, no tRAS bookkeeping, no queue slots.
  Channel& ch = channels_[line & (cfg_.channels - 1)];
  const std::uint64_t col = line >> ch_bits_;
  Bank& bank = ch.banks[(col >> kRowLineBits) & (cfg_.banks - 1)];
  if (cfg_.page == PagePolicy::kClosed) {
    bank.open = false;
    return;
  }
  bank.row = col >> (kRowLineBits + bank_bits_);
  bank.open = true;
}

std::string parse_dram(std::string_view token, DramConfig& cfg) {
  DramConfig out;  // modifiers apply over the ddr defaults
  if (token.empty()) return "empty DRAM token";
  if (token == "simple") {
    out.model = DramModel::kSimple;
    cfg = out;
    return {};
  }
  std::size_t pos = 0;
  bool first = true;
  while (pos <= token.size()) {
    std::size_t dash = token.find('-', pos);
    if (dash == std::string_view::npos) dash = token.size();
    const std::string_view part = token.substr(pos, dash - pos);
    pos = dash + 1;
    if (first) {
      if (part != "ddr") {
        return strprintf("unknown DRAM model '%.*s' (expected 'simple' or 'ddr[-...]')",
                         static_cast<int>(part.size()), part.data());
      }
      out.model = DramModel::kDdr;
      first = false;
      continue;
    }
    const auto parse_pow2 = [&part](std::size_t skip, std::uint32_t max,
                                    std::uint32_t& dst) {
      std::uint32_t v = 0;
      if (skip >= part.size()) return false;
      for (std::size_t i = skip; i < part.size(); ++i) {
        if (part[i] < '0' || part[i] > '9') return false;
        v = v * 10 + static_cast<std::uint32_t>(part[i] - '0');
        if (v > max) return false;  // also blocks silent uint32 wraparound
      }
      if (v == 0 || !is_pow2(v)) return false;
      dst = v;
      return true;
    };
    if (part == "open") {
      out.page = PagePolicy::kOpen;
    } else if (part == "closed") {
      out.page = PagePolicy::kClosed;
    } else if (part == "fcfs") {
      out.sched = DramSched::kFcfs;
    } else if (part == "frfcfs") {
      out.sched = DramSched::kFrFcfs;
    } else if (part.substr(0, 2) == "ch") {
      if (!parse_pow2(2, 16, out.channels)) {
        return strprintf("bad channel count '%.*s' (power of two, 1..16)",
                         static_cast<int>(part.size()), part.data());
      }
    } else if (part.substr(0, 2) == "bk") {
      if (!parse_pow2(2, 64, out.banks)) {
        return strprintf("bad bank count '%.*s' (power of two, 1..64)",
                         static_cast<int>(part.size()), part.data());
      }
    } else {
      return strprintf("unknown DRAM modifier '%.*s' (open|closed|fcfs|frfcfs|chN|bkN)",
                       static_cast<int>(part.size()), part.data());
    }
  }
  cfg = out;
  return {};
}

}  // namespace raccd
