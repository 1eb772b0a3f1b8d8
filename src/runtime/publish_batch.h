// PublishBatch: producer-side arena staging for the batched publish hot
// path. Instead of building one pubsub::Message (two heap strings plus a
// closure) per record on the producer thread, a producer stages N records
// into one batch: key and value bytes are claimed from a slab arena in
// contiguous bumps, and the staged record is just a pair of string_views
// over those slabs. ConcurrentBroker::TryPublishBatch then routes the whole
// batch with ONE ring task per owner shard; the owned Message strings are
// constructed exactly once, on the shard, at append (Broker::PublishRun).
//
// Ownership: a batch handed to TryPublishBatch is shared-owned by the posted
// shard tasks and must not be mutated until they run; producers that want to
// keep publishing immediately simply make a fresh batch (or Clear() a batch
// whose tasks are known to have drained — Clear resets the arena, retaining
// its largest slab, so a steady-state producer stops allocating entirely).
#ifndef SRC_RUNTIME_PUBLISH_BATCH_H_
#define SRC_RUNTIME_PUBLISH_BATCH_H_

#include <cstddef>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "pubsub/types.h"

namespace runtime {

class PublishBatch {
 public:
  // One staged record: borrowed views into the batch's arena (key/value) and
  // header storage (headers; nullptr when none).
  using Staged = pubsub::RecordView;

  explicit PublishBatch(std::size_t reserve_records = 64,
                        std::size_t arena_slab_bytes = common::Arena::kDefaultSlabBytes)
      : arena_(arena_slab_bytes) {
    staged_.reserve(reserve_records);
  }

  PublishBatch(const PublishBatch&) = delete;
  PublishBatch& operator=(const PublishBatch&) = delete;

  // Stages one record, copying key/value bytes into the arena. No per-record
  // heap allocation once the arena's slab is warm.
  void Add(std::string_view key, std::string_view value) {
    staged_.push_back(Staged{arena_.CopyString(key), arena_.CopyString(value), nullptr});
  }

  // Header-carrying overload (the rare path): headers are deep-copied into
  // deque-backed storage so the pointer stays stable as the batch grows.
  void Add(std::string_view key, std::string_view value, const pubsub::Headers& headers) {
    header_storage_.push_back(headers);
    staged_.push_back(
        Staged{arena_.CopyString(key), arena_.CopyString(value), &header_storage_.back()});
  }

  std::size_t size() const { return staged_.size(); }
  bool empty() const { return staged_.empty(); }
  const std::vector<Staged>& staged() const { return staged_; }
  const common::Arena& arena() const { return arena_; }

  // Reuses the batch: drops staged records and resets the arena (its largest
  // slab is retained, so the next fill is allocation-free). Only call once
  // any tasks referencing this batch have drained.
  void Clear() {
    staged_.clear();
    header_storage_.clear();
    arena_.Reset();
  }

 private:
  common::Arena arena_;
  std::vector<Staged> staged_;
  std::deque<pubsub::Headers> header_storage_;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_PUBLISH_BATCH_H_
