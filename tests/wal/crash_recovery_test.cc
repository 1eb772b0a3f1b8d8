// Crash-point sweep: for many seeds, run a deterministic broker workload on a
// FaultVfs, then re-run it crashing at *every* vfs append index in turn. After
// each crash the stack is recovered from the WAL onto a fresh broker and must
// satisfy:
//   * recovered partition contents are a byte-equal prefix of the fault-free
//     reference run (modulo the journaled retention trimming);
//   * every durably acked publish and offset commit survives recovery;
//   * the unmodified invariant oracle passes on the recovered stack;
//   * no sealed segment was rejected and no interior frame skipped.
//
// "Acked" follows the journal's durability discipline: an op counts as acked
// only if the sticky journal status was still OK after it (sync_every_append
// means the record hit stable storage before the status was read).
//
// The run variant publishes runs of 1-8 records through Broker::PublishRun,
// each journaled as one wal batch: a crash that tears a run's write must
// recover to the run's whole frames, and every acked run must survive.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "oracle/invariant_oracle.h"
#include "pubsub/broker.h"
#include "pubsub/types.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wal/broker_journal.h"
#include "wal/fault_vfs.h"

namespace wal {
namespace {

constexpr char kTopicA[] = "events";    // 2 partitions, no retention.
constexpr char kTopicB[] = "capped";    // 1 partition, max_messages size cap.
constexpr std::uint64_t kCapB = 8;
constexpr char kGroup[] = "g";
constexpr int kOps = 40;
constexpr std::uint64_t kSeeds = 25;
constexpr std::uint64_t kMaxRun = 8;  // Longest run the run variant publishes.

struct Stack {
  sim::Simulator sim;
  sim::Network net;
  pubsub::Broker broker;

  explicit Stack(std::uint64_t seed) : sim(seed), net(&sim), broker(&sim, &net, "broker") {}
};

struct AckedPublish {
  std::string topic;
  pubsub::PartitionId partition = 0;
  pubsub::Offset offset = 0;
  pubsub::Message msg;
};

struct RunLog {
  std::vector<AckedPublish> acked;                         // Durable publishes, op order.
  std::map<pubsub::PartitionId, pubsub::Offset> commits;   // Durable commits (topic A).
};

// Runs the seeded workload. The op stream is a pure function of `seed` and
// `max_run`; a crash only truncates it (ops stop once the vfs is down), so
// the fault-free run is the reference for every crash point of the same
// seed. With max_run 1 every publish is a single Broker::Publish; otherwise
// each publish op appends a run of 1..max_run records with PublishRun.
RunLog RunWorkload(std::uint64_t seed, FaultVfs* vfs, pubsub::Broker* broker,
                   BrokerJournal* journal, std::uint64_t max_run = 1) {
  RunLog out;
  pubsub::TopicConfig config_a;
  config_a.partitions = 2;
  pubsub::TopicConfig config_b;
  config_b.partitions = 1;
  config_b.retention.max_messages = kCapB;

  const bool created_a = journal->CreateTopic(kTopicA, config_a).ok();
  (void)journal->CreateTopic(kTopicB, config_b);
  if (created_a) {
    (void)broker->JoinGroup(kGroup, kTopicA, "member-1");
  }

  common::Rng rng(seed * 7919 + 17);
  for (int i = 0; i < kOps && !vfs->crashed(); ++i) {
    const std::uint64_t op = rng.Below(10);
    if (op < 9) {
      const bool to_a = op < 6;
      const std::string topic = to_a ? kTopicA : kTopicB;
      const pubsub::PartitionId partition =
          to_a ? static_cast<pubsub::PartitionId>(rng.Below(2)) : 0;
      // The broker stamps publish_time with its sim clock (0 throughout these
      // runs), so the recorded reference message must carry the stamped value.
      if (max_run == 1) {
        pubsub::Message msg;
        msg.key = "k" + std::to_string(i % 5);
        msg.value = "s" + std::to_string(seed) + "-op" + std::to_string(i);
        auto result = broker->Publish(topic, msg, partition);
        if (result.ok() && journal->status().ok()) {
          out.acked.push_back(AckedPublish{topic, result->partition, result->offset, msg});
        }
        continue;
      }
      std::vector<pubsub::Message> run(rng.Below(max_run) + 1);
      std::vector<pubsub::RecordView> views;
      for (std::size_t r = 0; r < run.size(); ++r) {
        run[r].key = "k" + std::to_string((i + r) % 5);
        run[r].value = "s" + std::to_string(seed) + "-op" + std::to_string(i) + "-" +
                       std::to_string(r);
      }
      for (const pubsub::Message& msg : run) {
        views.push_back(pubsub::RecordView{msg.key, msg.value, nullptr});
      }
      auto result = broker->PublishRun(topic, partition, views);
      if (result.ok() && journal->status().ok()) {
        for (std::size_t r = 0; r < run.size(); ++r) {
          out.acked.push_back(AckedPublish{topic, result->partition, result->offset + r, run[r]});
        }
      }
    } else if (created_a) {
      const pubsub::PartitionId p = static_cast<pubsub::PartitionId>(rng.Below(2));
      const pubsub::Offset target = broker->EndOffset(kTopicA, p);
      broker->CommitOffset(kGroup, p, target);
      if (journal->status().ok()) {
        auto it = out.commits.find(p);
        if (it == out.commits.end() || target > it->second) {
          out.commits[p] = target;
        }
      }
    }
  }
  return out;
}

// Full reference message stream per (topic, partition) — in a fault-free run
// every publish acks, so the acked list is the stream.
using Streams = std::map<std::pair<std::string, pubsub::PartitionId>, std::vector<pubsub::Message>>;

Streams StreamsOf(const RunLog& run) {
  Streams streams;
  for (const AckedPublish& p : run.acked) {
    streams[{p.topic, p.partition}].push_back(p.msg);
  }
  return streams;
}

// Asserts that `broker`'s recovered state is a prefix of the reference
// streams, with topic B's size cap applied to its prefix. `max_run` is the
// longest run the workload published.
void ExpectPrefixOfReference(pubsub::Broker* broker, const Streams& reference,
                             std::uint64_t max_run = 1) {
  for (const auto& [key, stream] : reference) {
    const auto& [topic, partition] = key;
    if (!broker->HasTopic(topic)) {
      continue;  // Legitimate only if nothing was acked — checked separately.
    }
    const pubsub::PartitionLog* log = broker->Log(topic, partition);
    ASSERT_NE(log, nullptr);
    const pubsub::Offset end = log->end_offset();
    ASSERT_LE(end, stream.size()) << topic << "/" << partition << ": recovered past reference";

    // Expected retained window for this end offset: everything for topic A,
    // the last kCapB messages for the size-capped topic B. The cap trims once
    // per run, and its trim record is journaled right after the run's batch,
    // so a crash between the two durably keeps the run's excess at the head
    // (re-trimmed by the next live append): up to one message per record of
    // the run, which is the old one-message slack plus max_run - 1.
    const pubsub::Offset cap_first = topic == kTopicB && end > kCapB ? end - kCapB : 0;
    const pubsub::Offset first = log->first_offset();
    ASSERT_LE(first, cap_first) << topic << "/" << partition;
    ASSERT_GE(first + max_run, cap_first) << topic << "/" << partition;
    if (topic != kTopicB) {
      ASSERT_EQ(first, 0u) << topic << "/" << partition;
    }
    ASSERT_EQ(log->entries().size(), static_cast<std::size_t>(end - first));
    for (std::size_t i = 0; i < log->entries().size(); ++i) {
      const pubsub::StoredMessage& m = log->entries()[i];
      ASSERT_EQ(m.offset, first + i) << topic << "/" << partition << " entry " << i;
      ASSERT_EQ(m.message, stream[static_cast<std::size_t>(m.offset)])
          << topic << "/" << partition << " offset " << m.offset;
    }
  }
}

void ExpectAckedSurvived(pubsub::Broker* broker, const RunLog& run) {
  for (const AckedPublish& p : run.acked) {
    ASSERT_TRUE(broker->HasTopic(p.topic)) << "acked publish to unrecovered topic " << p.topic;
    const pubsub::PartitionLog* log = broker->Log(p.topic, p.partition);
    ASSERT_NE(log, nullptr);
    ASSERT_LT(p.offset, log->end_offset())
        << p.topic << "/" << p.partition << ": acked offset lost";
    if (p.offset < log->first_offset()) {
      continue;  // Trimmed by the journaled size cap — accounted, not lost.
    }
    const std::size_t i = static_cast<std::size_t>(p.offset - log->first_offset());
    ASSERT_LT(i, log->entries().size());
    ASSERT_EQ(log->entries()[i].offset, p.offset);
    ASSERT_EQ(log->entries()[i].message, p.msg) << p.topic << "/" << p.partition;
  }
  for (const auto& [partition, committed] : run.commits) {
    ASSERT_GE(broker->CommittedOffset(kGroup, partition), committed)
        << "acked commit regressed on partition " << partition;
  }
}

// Crashes the seeded workload at every vfs append index and checks the
// recovered stack against the fault-free reference, counting the crash
// points swept into `*total_crash_points`.
void SweepCrashPoints(std::uint64_t max_run, std::uint64_t* total_crash_points) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Reference: fault-free run of the same op stream.
    FaultOptions clean;
    clean.seed = seed;
    FaultVfs ref_vfs(clean);
    RunLog reference;
    {
      Stack stack(seed);
      auto journal =
          BrokerJournal::Open(&ref_vfs, "wal", BrokerJournalOptions{}, nullptr, &stack.broker);
      ASSERT_TRUE(journal.ok());
      reference = RunWorkload(seed, &ref_vfs, &stack.broker, journal->get(), max_run);
      ASSERT_TRUE((*journal)->status().ok());
    }
    const std::uint64_t writes = ref_vfs.append_calls();
    ASSERT_GT(writes, 20u);
    const Streams streams = StreamsOf(reference);

    for (std::uint64_t crash_at = 0; crash_at < writes; ++crash_at) {
      SCOPED_TRACE("crash at append " + std::to_string(crash_at));
      ++*total_crash_points;

      FaultOptions fault;
      fault.seed = seed;
      fault.crash_at_append = static_cast<std::int64_t>(crash_at);
      fault.lose_unsynced_on_crash = true;
      FaultVfs vfs(fault);

      RunLog acked;
      {
        Stack stack(seed);
        auto journal =
            BrokerJournal::Open(&vfs, "wal", BrokerJournalOptions{}, nullptr, &stack.broker);
        ASSERT_TRUE(journal.ok());
        acked = RunWorkload(seed, &vfs, &stack.broker, journal->get(), max_run);
      }
      ASSERT_TRUE(vfs.crashed());
      vfs.Restart();

      // Recover onto a completely fresh stack.
      Stack stack(seed + 1000);
      common::MetricsRegistry metrics;
      auto journal = BrokerJournal::Open(&vfs, "wal", BrokerJournalOptions{}, &metrics,
                                         &stack.broker);
      ASSERT_TRUE(journal.ok()) << journal.status().message();
      ASSERT_TRUE((*journal)->status().ok());
      ASSERT_EQ(metrics.counter("wal.recovery.rejected_segments").value(), 0)
          << "sealed segment rejected after a plain crash";

      ExpectPrefixOfReference(&stack.broker, streams, max_run);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      ExpectAckedSurvived(&stack.broker, acked);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }

      // The unmodified cross-layer oracle must be clean on the recovered stack.
      oracle::InvariantOracle oracle(&stack.sim);
      oracle.ObserveBroker(&stack.broker);
      oracle.Check();
      oracle.CheckQuiesced();
      ASSERT_TRUE(oracle.ok()) << oracle.Report();
    }
  }
}

TEST(WalCrashRecoverySweepTest, EveryCrashPointRecoversToAnAckedConsistentPrefix) {
  std::uint64_t total_crash_points = 0;
  SweepCrashPoints(1, &total_crash_points);
  if (HasFatalFailure()) {
    return;
  }
  // ~25 seeds x every write index: make sure the sweep actually swept.
  EXPECT_GT(total_crash_points, 500u);
  std::printf("[ sweep    ] %llu crash points across %llu seeds, all recovered clean\n",
              static_cast<unsigned long long>(total_crash_points),
              static_cast<unsigned long long>(kSeeds));
}

TEST(WalCrashRecoverySweepTest, EveryCrashPointInARunRecoversWholeFrames) {
  std::uint64_t total_crash_points = 0;
  SweepCrashPoints(kMaxRun, &total_crash_points);
  if (HasFatalFailure()) {
    return;
  }
  EXPECT_GT(total_crash_points, 500u);
  std::printf("[ sweep    ] %llu run crash points across %llu seeds, all recovered clean\n",
              static_cast<unsigned long long>(total_crash_points),
              static_cast<unsigned long long>(kSeeds));
}

// A crash while *recovering* (during replay reads nothing is written, but the
// first post-recovery append may tear again): recovery is idempotent — crash,
// recover, crash during the next workload, recover again.
TEST(WalCrashRecoverySweepTest, RepeatedCrashesStayConsistent) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultOptions fault;
    fault.seed = seed;
    fault.crash_at_append = 12;
    fault.lose_unsynced_on_crash = true;
    auto vfs = std::make_unique<FaultVfs>(fault);

    {
      Stack stack(seed);
      auto journal =
          BrokerJournal::Open(vfs.get(), "wal", BrokerJournalOptions{}, nullptr, &stack.broker);
      ASSERT_TRUE(journal.ok());
      (void)RunWorkload(seed, vfs.get(), &stack.broker, journal->get());
    }
    ASSERT_TRUE(vfs->crashed());
    vfs->Restart();

    // First recovery; run more of the workload; no further faults scheduled.
    pubsub::Offset end_after_first = 0;
    {
      Stack stack(seed + 1);
      auto journal =
          BrokerJournal::Open(vfs.get(), "wal", BrokerJournalOptions{}, nullptr, &stack.broker);
      ASSERT_TRUE(journal.ok()) << journal.status().message();
      (void)RunWorkload(seed + 100, vfs.get(), &stack.broker, journal->get());
      ASSERT_TRUE((*journal)->status().ok());
      end_after_first = stack.broker.EndOffset(kTopicA, 0);
    }

    // Second recovery sees everything the first epoch wrote.
    Stack stack(seed + 2);
    common::MetricsRegistry metrics;
    auto journal =
        BrokerJournal::Open(vfs.get(), "wal", BrokerJournalOptions{}, &metrics, &stack.broker);
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    EXPECT_EQ(stack.broker.EndOffset(kTopicA, 0), end_after_first);
    EXPECT_EQ(metrics.counter("wal.recovery.rejected_segments").value(), 0);

    oracle::InvariantOracle oracle(&stack.sim);
    oracle.ObserveBroker(&stack.broker);
    oracle.Check();
    oracle.CheckQuiesced();
    EXPECT_TRUE(oracle.ok()) << oracle.Report();
  }
}

}  // namespace
}  // namespace wal
