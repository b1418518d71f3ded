// DRAM memory-system model behind the memory controllers: channels -> banks
// with row-buffer state, bank-level timing (tRCD/tCAS/tRP/tRAS-style
// parameters in core cycles), open/closed page policies, and bounded
// read/write request queues with FCFS or FR-FCFS service — all in the same
// run-to-completion style as the fabric's per-bank busy windows (DESIGN.md
// substitution #9).
//
// Two models:
//  * kSimple (default) — the legacy flat latency: every off-chip access
//    costs kMemCycles (coherence/fabric.hpp) and one kMemAccessPj.
//    The fabric never consults a DramController in this mode, so behavior
//    is byte-identical to the pre-DRAM simulator.
//  * kDdr — the closed-form bank/row-buffer model below. Row hits pay
//    tCAS+tBURST, closed rows add tRCD (activate), conflicts add tRP
//    (precharge, gated by tRAS) on top; each access serializes on the
//    channel data bus for tBURST, and writebacks occupy write-queue slots
//    that backpressure reads (full write queue => reads wait for a drain).
//
// One DramController instance serves one memory-controller tile, so NUMA
// topologies get independent per-socket controllers via
// Mesh::nearest_memory_controller.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "raccd/common/types.hpp"

namespace raccd {

enum class DramModel : std::uint8_t { kSimple = 0, kDdr };
enum class PagePolicy : std::uint8_t { kOpen = 0, kClosed };
enum class DramSched : std::uint8_t { kFrFcfs = 0, kFcfs };

[[nodiscard]] constexpr const char* to_string(DramModel m) noexcept {
  switch (m) {
    case DramModel::kSimple: return "simple";
    case DramModel::kDdr: return "ddr";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(PagePolicy p) noexcept {
  switch (p) {
    case PagePolicy::kOpen: return "open";
    case PagePolicy::kClosed: return "closed";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(DramSched s) noexcept {
  switch (s) {
    case DramSched::kFrFcfs: return "frfcfs";
    case DramSched::kFcfs: return "fcfs";
  }
  return "?";
}

/// Row-buffer size; rows are kDramRowBytes / 64 consecutive lines (power of 2).
inline constexpr std::uint32_t kDramRowBytes = 2048;
/// Per-channel read-queue capacity (DramConfig::write_queue_slots is the
/// write side).
inline constexpr std::uint32_t kDramReadQueueSlots = 16;
// Bank timing in core cycles (~DDR4-2400 behind a 2.4 GHz core: 14-16 ns
// tRCD/tCAS/tRP, 35 ns tRAS, 4-beat burst over the controller interface).
inline constexpr Cycle kDramTRcd = 44;    ///< activate -> column command
inline constexpr Cycle kDramTCas = 44;    ///< column command -> first data
inline constexpr Cycle kDramTRp = 44;     ///< precharge
inline constexpr Cycle kDramTRas = 104;   ///< activate -> earliest precharge
inline constexpr Cycle kDramTBurst = 16;  ///< data burst on the channel bus

struct DramConfig {
  DramModel model = DramModel::kSimple;
  /// Channels per controller; lines interleave across channels (power of 2).
  std::uint32_t channels = 1;
  /// Banks per channel; consecutive rows interleave across banks (power of 2).
  std::uint32_t banks = 8;
  PagePolicy page = PagePolicy::kOpen;
  DramSched sched = DramSched::kFrFcfs;
  /// Per-channel write-queue capacity; a full write queue stalls reads too.
  std::uint32_t write_queue_slots = 8;
};

/// One serviced request, as accounted by the fabric. Beyond the timing the
/// fabric charges, the outcome carries where the request landed and how deep
/// the queues were — observation-only fields the event tracer turns into
/// per-bank busy spans and queue-depth counters (never consulted by timing).
struct DramOutcome {
  enum class Row : std::uint8_t { kHit = 0, kEmpty, kConflict };
  Cycle wait = 0;     ///< arrive -> service start (queues, drains, bank, order)
  Cycle latency = 0;  ///< service start -> data done
  Row row = Row::kEmpty;
  bool activated = false;   ///< paid an ACT (row was not open)
  bool precharged = false;  ///< paid a PRE (conflict or closed-page auto-PRE)
  std::uint32_t channel = 0;     ///< channel index within the controller
  std::uint32_t bank = 0;        ///< bank index within the channel
  std::uint32_t read_depth = 0;  ///< read-queue depth after this request
  std::uint32_t write_depth = 0; ///< write-queue depth after this request

  [[nodiscard]] Cycle total() const noexcept { return wait + latency; }
};

class DramController {
 public:
  explicit DramController(const DramConfig& cfg);

  /// Service a line fetch arriving at the controller at `arrive`. The caller
  /// waits out()->total() before the response heads back onto the NoC.
  DramOutcome read(LineAddr line, Cycle arrive) { return service(line, arrive, false); }
  /// Enqueue a writeback arriving at `arrive`. Posted: the caller does not
  /// wait, but the write occupies a queue slot and a bank/bus window that
  /// later requests contend with; the outcome is for stats only.
  DramOutcome write(LineAddr line, Cycle arrive) { return service(line, arrive, true); }

  /// Functional fast-forward: keep the row-buffer state warm for `line`
  /// without timing, queue, or stats side effects — the bank's open row
  /// tracks the access stream (per page policy) so a detailed window that
  /// follows a fast-forward phase sees realistic row-hit behavior.
  void warm_touch(LineAddr line) noexcept;

 private:
  struct Bank {
    bool open = false;
    std::uint64_t row = 0;
    Cycle busy_until = 0;
    Cycle ras_ready = 0;  ///< earliest cycle the open row may precharge
  };
  struct Channel {
    std::vector<Bank> banks;
    Cycle bus_busy_until = 0;  ///< data-bus serialization (kDramTBurst per access)
    Cycle last_start = 0;      ///< FCFS in-order issue point
    std::vector<Cycle> read_q, write_q;  ///< completion times of queued requests
  };

  DramOutcome service(LineAddr line, Cycle arrive, bool is_write);
  /// Wait until `q` (entries = completion times) has a free slot at `t`.
  static Cycle wait_for_slot(std::vector<Cycle>& q, std::uint32_t slots, Cycle t);

  DramConfig cfg_;
  std::vector<Channel> channels_;
  std::uint32_t ch_bits_ = 0, bank_bits_ = 0;
};

/// Parse a DRAM-model token: "simple" (default), or "ddr" with optional
/// '-'-separated modifiers — "open"/"closed" (page policy),
/// "fcfs"/"frfcfs" (scheduler), "ch<N>" (channels), "bk<N>" (banks per
/// channel), e.g. "ddr-closed-fcfs-ch2". Returns "" on success or an error.
[[nodiscard]] std::string parse_dram(std::string_view token, DramConfig& cfg);

}  // namespace raccd
