// ConcurrentWatchService: thread-safe facade over the per-shard WatchSystems
// of a ShardPool. The key space is split into contiguous ranges — shard s
// owns [splits[s-1], splits[s]) — so ingest routes by key to exactly one
// shard, and a watch session materializes as one sub-session per overlapping
// shard, created under a fence when the range spans shards (a consistent cut:
// no ingest lands between the first and last sub-session registration).
//
// Delivery contract (the runtime-level restatement of docs/PROTOCOL.md W1–W4):
//   * per owning shard, a live session receives every accepted event in its
//     range in ingest order — no gaps, no reorders (W1/W2 hold per shard
//     because each shard *is* the single-threaded core);
//   * overload is loud, never silent: a session lagging past
//     max_session_backlog gets OnResync (W3); a saturated shard rejects the
//     ingest with kUnavailable + retry-after back to the feeder, counted in
//     runtime.ingest_rejected — the event was never accepted, so no watcher
//     is owed it;
//   * after the first OnResync on a logical session, nothing further is
//     delivered on it (W4); racing deliveries from other shards are dropped
//     facade-side and counted (runtime.post_resync_drops).
//
// Callbacks run on shard worker threads, serialized per logical session by a
// session mutex; user callbacks must not block.
#ifndef SRC_RUNTIME_CONCURRENT_WATCH_H_
#define SRC_RUNTIME_CONCURRENT_WATCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/shard_pool.h"
#include "watch/api.h"
#include "watch/filter.h"

namespace runtime {

class ConcurrentWatchService : public watch::Watchable, public watch::Ingester {
 public:
  explicit ConcurrentWatchService(ShardPool* pool);
  ~ConcurrentWatchService() override;

  ConcurrentWatchService(const ConcurrentWatchService&) = delete;
  ConcurrentWatchService& operator=(const ConcurrentWatchService&) = delete;

  // -- Key-space ownership ------------------------------------------------------

  std::size_t OwnerShard(const common::Key& key) const;
  // The contiguous range shard s owns (half-open; "" high = unbounded).
  common::KeyRange ShardRange(std::size_t shard) const;

  // -- Ingest -------------------------------------------------------------------

  // Non-blocking ingest with explicit backpressure: kUnavailable (with a
  // retry-after hint) when the owning shard is saturated, kFailedPrecondition
  // (no hint) when the pool is stopped. The rejection is
  // loud *to the feeder* — the event is not accepted, the authoritative store
  // still holds it, and per-key order is preserved as long as the feeder
  // retries before advancing (the usual CDC discipline).
  common::Status TryIngest(const common::ChangeEvent& event,
                           common::TimeMicros* retry_after = nullptr);

  // watch::Ingester: blocking ingest (waits through backpressure) and
  // range-split progress routing.
  void Append(const common::ChangeEvent& event) override;
  void Progress(const common::ProgressEvent& event) override;

  // -- Watchable ----------------------------------------------------------------

  // The callback may be invoked from shard worker threads (serialized per
  // logical session). Destroy the returned handle only after the pool has
  // stopped or from a non-worker thread.
  std::unique_ptr<watch::WatchHandle> Watch(common::Key low, common::Key high,
                                            common::Version version,
                                            watch::WatchCallback* callback) override;

  // Filtered watch: the filter's range picks the owning shards; each
  // sub-session carries the filter with its range clipped to the shard's
  // slice. Header predicates are rejected (nullptr) — change events carry no
  // headers. Progress notifications stay range-scoped: the content filter
  // narrows event delivery, not frontier advancement.
  std::unique_ptr<watch::WatchHandle> WatchFiltered(watch::Filter filter, common::Version version,
                                                    watch::WatchCallback* callback);

  // -- Aggregated introspection (fenced) ----------------------------------------

  struct Stats {
    std::uint64_t events_delivered = 0;
    std::uint64_t resyncs_sent = 0;
    std::uint64_t active_sessions = 0;
    std::uint64_t retained_events = 0;
  };
  Stats TotalStats();

 private:
  struct LogicalSession;
  class FanCallback;
  class Handle;

  ShardPool* pool_;
  std::vector<common::Key> splits_;  // Ascending, size shards-1.
  common::Counter* ingest_accepted_;
  common::Counter* ingest_rejected_;
  common::Counter* watch_resyncs_;
  common::Counter* post_resync_drops_;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_CONCURRENT_WATCH_H_
