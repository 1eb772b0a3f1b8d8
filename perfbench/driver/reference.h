// The reference delivery model: what each subscription must receive, computed
// from the generated inputs alone, and the check of what it did receive.
#ifndef PERFBENCH_DRIVER_REFERENCE_H_
#define PERFBENCH_DRIVER_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "driver/gen.h"
#include "pubsub/filter.h"

namespace perfbench {

// One accepted record of a partition, in the order the single producer
// published it — which is the partition's log order.
struct LogEntry {
  std::uint32_t seq = 0;
  std::uint32_t rank = 0;
};

// One delivery as a subscriber saw it.
struct Delivery {
  std::uint32_t seq = 0;
  std::uint32_t offset = 0;
};

// One past the position of the last record of `log` that `filter` (nullptr:
// all records) matches; 0 when none does.
inline std::size_t MatchingEnd(const std::vector<LogEntry>& log, const pubsub::Filter* filter,
                               const std::vector<std::string>& keys) {
  static const pubsub::Headers kNoHeaders;
  for (std::size_t i = log.size(); i > 0; --i) {
    if (filter == nullptr || filter->Matches(keys[log[i - 1].rank], kNoHeaders)) return i;
  }
  return 0;
}

// A subscription opened at offset `first` with `filter` (nullptr: all
// records) must receive exactly the records of `log` from `first` on that
// match, once each, in log order, each at the offset equal to its position in
// the log. `keys` maps a rank to its key. Returns "" when it did, else the
// first violation.
inline std::string CheckDeliveries(const std::vector<LogEntry>& log, const pubsub::Filter* filter,
                                   const std::vector<std::string>& keys,
                                   const std::vector<Delivery>& delivered, std::size_t first = 0) {
  static const pubsub::Headers kNoHeaders;
  std::size_t pos = first;
  auto matches = [&](const LogEntry& e) {
    return filter == nullptr || filter->Matches(keys[e.rank], kNoHeaders);
  };
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    while (pos < log.size() && !matches(log[pos])) ++pos;
    if (pos == log.size()) {
      return "delivery " + std::to_string(i) + " (seq " + std::to_string(delivered[i].seq) +
             ") is beyond the last matching record (duplicate or foreign)";
    }
    if (delivered[i].seq != log[pos].seq || delivered[i].offset != pos) {
      return "delivery " + std::to_string(i) + " is seq " + std::to_string(delivered[i].seq) +
             " at offset " + std::to_string(delivered[i].offset) + ", expected seq " +
             std::to_string(log[pos].seq) + " at offset " + std::to_string(pos);
    }
    ++pos;
  }
  while (pos < log.size() && !matches(log[pos])) ++pos;
  if (pos != log.size()) {
    return "missing seq " + std::to_string(log[pos].seq) + " at offset " + std::to_string(pos) +
           " (silent loss)";
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REFERENCE_H_
