// TryPublishBatch into a durable, replicated pool: each shard task appends
// its group as one run per partition, journaled as one wal batch and shipped
// as one message. Two producer threads publish single-shard batches (accepted
// or refused whole) into 2 shards x 4 partitions with a size cap and small
// segments, so runs cross rotations and trims; the pool is then stopped and
// its leader tree reopened.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "pubsub/broker.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "wal/fault_vfs.h"

namespace wal {
namespace {

constexpr pubsub::PartitionId kPartitions = 4;
constexpr int kProducers = 2;
constexpr int kBatchesPerProducer = 80;
constexpr std::size_t kShards = 2;

runtime::RuntimeOptions DurableOptions(FaultVfs* vfs, std::size_t replication_factor) {
  runtime::RuntimeOptions options;
  options.shards = kShards;
  options.queue_capacity = 8;  // Small enough that producers meet backpressure.
  options.durable_vfs = vfs;
  options.replication_factor = replication_factor;
  options.durable.partition.log.segment_bytes = 512;
  return options;
}

std::vector<pubsub::StoredMessage> ReadAll(runtime::ConcurrentBroker* broker,
                                           pubsub::PartitionId p) {
  auto read = broker->Fetch("t", p, broker->FirstOffset("t", p), 1u << 20);
  EXPECT_TRUE(read.ok());
  return read.ok() ? *read : std::vector<pubsub::StoredMessage>{};
}

std::string Value(int producer, pubsub::PartitionId p, int seq) {
  return "t" + std::to_string(producer) + "-p" + std::to_string(p) + "-" + std::to_string(seq);
}

TEST(DurableBatchTest, AcceptedRunsRecoverInOrderAndFollowerFilesMatchTheLeader) {
  // Two keys per partition, so one batch mixes keys within a partition too.
  std::vector<std::vector<std::string>> keys(kPartitions);
  const auto short_of_keys = [&keys] {
    return std::any_of(keys.begin(), keys.end(),
                       [](const std::vector<std::string>& k) { return k.size() < 2; });
  };
  for (int i = 0; short_of_keys(); ++i) {
    const std::string key = "key-" + std::to_string(i);
    std::vector<std::string>& slot = keys[pubsub::Broker::HashKey(key) % kPartitions];
    if (slot.size() < 2) {
      slot.push_back(key);
    }
  }

  FaultVfs vfs;
  pubsub::TopicConfig config;
  config.partitions = kPartitions;
  config.retention.max_messages = 60;
  // Records accepted per producer and partition: the next sequence number.
  std::vector<std::vector<int>> next_seq(kProducers, std::vector<int>(kPartitions, 0));
  std::vector<std::vector<pubsub::StoredMessage>> live(kPartitions);
  {
    runtime::ShardPool pool(DurableOptions(&vfs, 2));
    runtime::ConcurrentBroker broker(&pool);
    pool.Start();
    ASSERT_TRUE(pool.durable_status().ok()) << pool.durable_status().message();
    ASSERT_TRUE(broker.CreateTopic("t", config).ok());

    std::vector<int> failures(kProducers, 0);
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        common::Rng rng(100 + static_cast<std::uint64_t>(t));
        for (int b = 0; b < kBatchesPerProducer; ++b) {
          // Every record of a batch routes to one shard's partitions (p %
          // kShards == shard), so the batch is one task: accepted or refused
          // whole.
          const std::size_t shard = static_cast<std::size_t>(b) % kShards;
          auto batch = std::make_shared<runtime::PublishBatch>();
          std::vector<int> seq = next_seq[t];
          const std::size_t n = rng.Below(16) + 1;
          for (std::size_t i = 0; i < n; ++i) {
            const auto p = static_cast<pubsub::PartitionId>(shard + kShards * rng.Below(2));
            batch->Add(keys[p][rng.Below(2)], Value(t, p, seq[p]++));
          }
          for (;;) {
            common::TimeMicros retry = 0;
            const common::Status st = broker.TryPublishBatch("t", batch, &retry);
            if (st.ok()) {
              next_seq[t] = seq;
              break;
            }
            if (st.code() != common::StatusCode::kUnavailable) {
              ++failures[t];
              return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(retry));
          }
        }
      });
    }
    for (std::thread& producer : producers) {
      producer.join();
    }
    ASSERT_EQ(failures, std::vector<int>(kProducers, 0));
    pool.Quiesce();
    ASSERT_TRUE(pool.durable_status().ok()) << pool.durable_status().message();
    for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
      live[p] = ReadAll(&broker, p);
    }
    pool.Stop();
  }

  // The follower applied every run as one batch and rotated where the leader
  // did: each leader segment file has a byte-identical follower copy. (The
  // follower keeps older segments the leader's GC dropped.)
  std::size_t compared = 0;
  for (const std::string& path : vfs.Paths()) {
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string leader_root = "wal/shard-" + std::to_string(s) + "/";
      if (path.compare(0, leader_root.size(), leader_root) != 0) {
        continue;
      }
      const std::string follower_path = "wal/shard-" + std::to_string(s) + "-replica-0/" +
                                        path.substr(leader_root.size());
      std::string* leader_file = vfs.MutableContents(path);
      std::string* follower_file = vfs.MutableContents(follower_path);
      ASSERT_NE(follower_file, nullptr) << follower_path;
      EXPECT_EQ(*leader_file, *follower_file) << path;
      ++compared;
    }
  }
  EXPECT_GT(compared, 8u);

  // Reopen the leader tree alone: every accepted record is at its offset.
  runtime::ShardPool pool(DurableOptions(&vfs, 1));
  runtime::ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(pool.durable_status().ok()) << pool.durable_status().message();
  for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    int accepted = 0;
    for (int t = 0; t < kProducers; ++t) {
      accepted += next_seq[t][p];
    }
    EXPECT_EQ(broker.EndOffset("t", p), static_cast<pubsub::Offset>(accepted));
    const std::vector<pubsub::StoredMessage> recovered = ReadAll(&broker, p);
    EXPECT_EQ(recovered, live[p]);
    EXPECT_EQ(recovered.size(), std::min<std::size_t>(accepted, config.retention.max_messages));
    // The cap keeps the partition's newest records, so each producer's
    // retained records are the tail of its own sequence, in order.
    std::vector<int> expect(kProducers, -1);
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      EXPECT_EQ(recovered[i].offset, recovered.front().offset + i);
      const std::string& value = recovered[i].message.value;
      const int t = value[1] - '0';
      ASSERT_TRUE(t >= 0 && t < kProducers) << value;
      const int seq = std::stoi(value.substr(value.rfind('-') + 1));
      if (expect[t] >= 0) {
        EXPECT_EQ(seq, expect[t]) << value;
      }
      expect[t] = seq + 1;
      EXPECT_EQ(value, Value(t, p, seq));
    }
    for (int t = 0; t < kProducers; ++t) {
      if (expect[t] >= 0) {
        EXPECT_EQ(expect[t], next_seq[t][p]) << "producer " << t;
      }
    }
  }
  pool.Stop();
}

}  // namespace
}  // namespace wal
