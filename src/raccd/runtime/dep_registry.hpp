// Byte-range dependence analysis (the OmpSs/Nanos++ region-dependence model).
//
// A segment map over the virtual address space tracks, for every byte range,
// the last writing task and the readers since that write. Registering a new
// dependence splits segments at the range boundaries and derives:
//   in    -> RAW edge from the last writer;
//   out   -> WAW edge from the last writer + WAR edges from the readers;
//   inout -> both of the above.
//
// Host cost scales with the segments a dependence covers, not with the map:
// a flat index from segment begin to segment resolves the common case (a
// dependence that starts on an existing boundary) in one probe, and the
// registration then walks forward in address order, splitting the last
// covered segment at the range end. Only a begin that falls mid-segment or
// in unseen memory pays one ordered search of the map.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "raccd/common/flat_map.hpp"
#include "raccd/common/types.hpp"
#include "raccd/runtime/task.hpp"

namespace raccd {

class DepRegistry {
 public:
  /// Register one dependence of task `t`; appends predecessor task ids to
  /// `preds` (duplicates possible — caller dedupes per task).
  void register_dep(TaskId t, const DepSpec& dep, std::vector<TaskId>& preds);

  [[nodiscard]] std::size_t segment_count() const noexcept { return segs_.size(); }

  /// Last writer covering `addr` (kNoTask if never written). Test hook.
  [[nodiscard]] TaskId last_writer_at(VAddr addr) const noexcept;

 private:
  struct Segment {
    VAddr end = 0;
    TaskId last_writer = kNoTask;
    std::vector<TaskId> readers;  ///< readers since last_writer
  };
  using Map = std::map<VAddr, Segment>;  // key = segment begin

  /// The segment beginning exactly at `addr` — splitting the segment that
  /// covers `addr` if needed — or, when no segment covers `addr`, the first
  /// segment after it (end() if none).
  Map::iterator seek(VAddr addr);

  /// Add segment [begin, seg.end) to the map (immediately before `hint`)
  /// and to the begin index.
  Map::iterator insert(Map::iterator hint, VAddr begin, Segment seg);

  Map segs_;
  OpenAddrMap<Map::iterator> begins_;  ///< segment begin -> its map node
};

}  // namespace raccd
