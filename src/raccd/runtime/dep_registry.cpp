#include "raccd/runtime/dep_registry.hpp"

#include <algorithm>
#include <iterator>

#include "raccd/common/assert.hpp"

namespace raccd {

DepRegistry::Map::iterator DepRegistry::insert(Map::iterator hint, VAddr begin, Segment seg) {
  const Map::iterator it = segs_.emplace_hint(hint, begin, std::move(seg));
  begins_.insert(begin, it);
  return it;
}

DepRegistry::Map::iterator DepRegistry::seek(VAddr addr) {
  if (const Map::iterator* hit = begins_.find(addr)) return *hit;
  // Mid-segment or unseen memory: the one ordered search.
  const Map::iterator next = segs_.upper_bound(addr);
  if (next == segs_.begin()) return next;
  Segment& covering = std::prev(next)->second;
  if (covering.end <= addr) return next;  // `addr` starts in a gap
  // Split [begin, end) into [begin, addr) + [addr, end).
  Segment right = covering;
  covering.end = addr;
  return insert(next, addr, std::move(right));
}

void DepRegistry::register_dep(TaskId t, const DepSpec& dep, std::vector<TaskId>& preds) {
  if (dep.size == 0) return;
  const VAddr begin = dep.addr;
  const VAddr end = dep.addr + dep.size;
  const bool reads = dep.kind != DepKind::kOut;
  const bool writes = dep.kind != DepKind::kIn;

  Map::iterator it = seek(begin);
  VAddr cursor = begin;
  while (cursor < end) {
    if (it == segs_.end() || it->first > cursor) {
      // Uncovered gap [cursor, gap_end): fresh memory with no history.
      const VAddr gap_end = (it == segs_.end()) ? end : std::min(end, it->first);
      Segment fresh;
      fresh.end = gap_end;
      if (writes) {
        fresh.last_writer = t;
      } else {
        fresh.readers.push_back(t);
      }
      it = std::next(insert(it, cursor, std::move(fresh)));
      cursor = gap_end;
      continue;
    }
    RACCD_DEBUG_ASSERT(it->first == cursor, "segment map lost alignment");
    Segment& seg = it->second;
    if (seg.end > end) {
      // The range ends inside this segment: split off [end, seg.end) with
      // the history as it stands before this dependence.
      insert(std::next(it), end, seg);
      seg.end = end;
    }
    if (seg.last_writer != kNoTask && seg.last_writer != t) {
      preds.push_back(seg.last_writer);  // RAW or WAW
    }
    if (writes) {
      for (const TaskId r : seg.readers) {
        if (r != t) preds.push_back(r);  // WAR
      }
      seg.last_writer = t;
      seg.readers.clear();
    }
    if (reads) {
      seg.readers.push_back(t);
    }
    cursor = seg.end;
    ++it;
  }
}

TaskId DepRegistry::last_writer_at(VAddr addr) const noexcept {
  auto it = segs_.upper_bound(addr);
  if (it == segs_.begin()) return kNoTask;
  --it;
  if (it->second.end <= addr) return kNoTask;
  return it->second.last_writer;
}

}  // namespace raccd
