// Cross-cutting edge cases that don't belong to any one module's suite:
// boundary keys, empty ranges, policy interactions, and lifecycle corners.
#include <gtest/gtest.h>

#include "cdc/feeds.h"
#include "common/interval_map.h"
#include "common/types.h"
#include "pubsub/broker.h"
#include "pubsub/log.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/mvcc_store.h"
#include "watch/materialized.h"
#include "watch/snapshot_source.h"
#include "watch/store_watch.h"
#include "watch/watch_system.h"
#include "workqueue/pubsub_queue.h"

namespace {

constexpr common::TimeMicros kMs = common::kMicrosPerMilli;
constexpr common::TimeMicros kSec = common::kMicrosPerSecond;
using common::KeyRange;
using common::Mutation;

TEST(KeyRangeEdgeTest, SingleOfEmptyKey) {
  const KeyRange r = KeyRange::Single("");
  EXPECT_TRUE(r.Contains(""));
  EXPECT_FALSE(r.Contains("a"));
  EXPECT_FALSE(r.Empty());
}

TEST(KeyRangeEdgeTest, IntersectOfEmptyWithAll) {
  const KeyRange empty{"m", "m"};
  EXPECT_TRUE(empty.Intersect(KeyRange::All()).Empty());
  EXPECT_TRUE(KeyRange::All().Intersect(empty).Empty());
}

TEST(IntervalMapEdgeTest, VisitAndFoldOnEmptyRange) {
  common::IntervalMap<int> m(1);
  int visits = 0;
  m.Visit(KeyRange{"c", "c"}, [&visits](const KeyRange&, const int&) { ++visits; });
  EXPECT_EQ(visits, 0);
  const int folded = m.Fold<int>(KeyRange{"c", "c"}, -7,
                                 [](int acc, const KeyRange&, const int&) { return acc + 1; });
  EXPECT_EQ(folded, -7);  // Untouched accumulator.
}

TEST(WatchEdgeTest, EmptyRangeWatchReceivesNothing) {
  sim::Simulator sim;
  watch::WatchSystem ws(&sim, nullptr, "ws", {.delivery_latency = 0, .progress_period = 0});
  struct Cb : watch::WatchCallback {
    int events = 0;
    void OnEvent(const watch::ChangeEvent&) override { ++events; }
    void OnProgress(const watch::ProgressEvent&) override {}
    void OnResync() override {}
  } cb;
  auto handle = ws.Watch("m", "m", 0, &cb);  // Empty range.
  ws.Append({"m", Mutation::Put("v"), 1, true});
  sim.Run();
  EXPECT_EQ(cb.events, 0);
}

TEST(WatchEdgeTest, RangeBoundariesAreHalfOpen) {
  sim::Simulator sim;
  watch::WatchSystem ws(&sim, nullptr, "ws", {.delivery_latency = 0, .progress_period = 0});
  std::vector<common::Key> got;
  struct Cb : watch::WatchCallback {
    std::vector<common::Key>* out;
    void OnEvent(const watch::ChangeEvent& e) override { out->push_back(e.key); }
    void OnProgress(const watch::ProgressEvent&) override {}
    void OnResync() override {}
  } cb;
  cb.out = &got;
  auto handle = ws.Watch("b", "d", 0, &cb);
  ws.Append({"a", Mutation::Put("v"), 1, true});
  ws.Append({"b", Mutation::Put("v"), 2, true});   // Inclusive low.
  ws.Append({"czz", Mutation::Put("v"), 3, true});
  ws.Append({"d", Mutation::Put("v"), 4, true});   // Exclusive high.
  sim.Run();
  EXPECT_EQ(got, (std::vector<common::Key>{"b", "czz"}));
}

TEST(WatchEdgeTest, TwoSessionsMayShareOneCallback) {
  sim::Simulator sim;
  watch::WatchSystem ws(&sim, nullptr, "ws", {.delivery_latency = 0, .progress_period = 0});
  struct Cb : watch::WatchCallback {
    int events = 0;
    void OnEvent(const watch::ChangeEvent&) override { ++events; }
    void OnProgress(const watch::ProgressEvent&) override {}
    void OnResync() override {}
  } cb;
  auto h1 = ws.Watch("a", "c", 0, &cb);
  auto h2 = ws.Watch("b", "d", 0, &cb);  // Overlapping: "b.." delivered twice.
  ws.Append({"bb", Mutation::Put("v"), 1, true});
  sim.Run();
  EXPECT_EQ(cb.events, 2);
}

TEST(LogEdgeTest, CompactionAndRetentionCompose) {
  // Compaction keeps the latest version per old key; retention then removes
  // even those once they age past the retention horizon.
  pubsub::PartitionLog log({});
  log.Append({"a", "a1", 100});
  log.Append({"a", "a2", 200});
  log.Append({"b", "b1", 300});
  EXPECT_EQ(log.Compact(250), 1u);     // Drops a1, keeps a2 (latest old "a").
  EXPECT_EQ(log.GcBefore(250), 1u);    // Retention then removes a2 as well.
  EXPECT_EQ(log.size(), 1u);           // Only b1 survives.
  std::vector<pubsub::StoredMessage> msgs;
  (void)log.Read(0, 0, 0, nullptr, &msgs);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].message.key, "b");
}

TEST(BrokerEdgeTest, FetchAtEndOffsetIsEmptyNotError) {
  sim::Simulator sim;
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  pubsub::Broker broker(&sim, &net);
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  broker.Publish("t", {"k", "v", 0}, 0);
  auto msgs = broker.Fetch("t", 0, broker.EndOffset("t", 0), 10);
  ASSERT_TRUE(msgs.ok());
  EXPECT_TRUE(msgs->empty());
}

TEST(MaterializedEdgeTest, StopDuringInitialSyncIsSafe) {
  sim::Simulator sim;
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  storage::MvccStore store;
  watch::StoreWatch sw(&sim, &net, &store, "sw", {.delivery_latency = 1 * kMs});
  watch::StoreSnapshotSource source(&store);
  watch::MaterializedRange mr(&sim, &sw, &source, KeyRange::All(),
                              {.resync_delay = 50 * kMs});
  mr.Start();
  sim.RunUntil(10 * kMs);  // Mid-sync.
  mr.Stop();
  sim.RunUntil(200 * kMs);  // The pending sync callback fires harmlessly.
  EXPECT_FALSE(mr.ready());

  // Start again works.
  store.Apply("k", Mutation::Put("v"));
  mr.Start();
  sim.RunUntil(400 * kMs);
  EXPECT_TRUE(mr.ready());
  EXPECT_EQ(*mr.Get("k"), "v");
}

TEST(MaterializedEdgeTest, RestartAfterStopSeesOnlyCurrentState) {
  sim::Simulator sim;
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  storage::MvccStore store;
  watch::StoreWatch sw(&sim, &net, &store, "sw",
                       {.delivery_latency = 1 * kMs, .progress_period = 5 * kMs});
  watch::StoreSnapshotSource source(&store);
  watch::MaterializedRange mr(&sim, &sw, &source, KeyRange::All(),
                              {.resync_delay = 5 * kMs});
  store.Apply("gone", Mutation::Put("x"));
  mr.Start();
  sim.RunUntil(50 * kMs);
  mr.Stop();
  store.Apply("gone", Mutation::Delete());
  store.Apply("kept", Mutation::Put("y"));
  mr.Start();
  sim.RunUntil(150 * kMs);
  EXPECT_EQ(mr.Get("gone").status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(*mr.Get("kept"), "y");
}

TEST(WorkqueueEdgeTest, PoisonTaskDeadLettersAndUnblocks) {
  sim::Simulator sim;
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  pubsub::Broker broker(&sim, &net);
  ASSERT_TRUE(broker.CreateTopic("tasks", {.partitions = 1}).ok());
  ASSERT_TRUE(broker.CreateTopic("tasks-dlq", {.partitions = 1}).ok());
  storage::MvccStore store;
  workqueue::PubsubQueueOptions options;
  options.workers = 1;
  options.consumer.poll_period = 2 * kMs;
  options.consumer.max_redeliveries = 3;
  options.consumer.dead_letter_topic = "tasks-dlq";
  workqueue::PubsubWorkQueue queue(&sim, &net, &broker, "tasks", "g", &store, options);
  sim.RunUntil(20 * kMs);
  // A malformed task (undecodable desired state) is acked-and-dropped by the
  // handler; a well-formed one behind it must still complete.
  (void)broker.Publish("tasks", {workqueue::DesiredKey(1), "NOT-A-DESIRED-VALUE", 0}, 0);
  store.Apply(workqueue::DesiredKey(2),
              Mutation::Put(workqueue::EncodeDesired(0, "cfg")));
  sim.RunUntil(2 * kSec);
  EXPECT_EQ(*store.GetLatest(workqueue::ActualKey(2)), "cfg");
}

}  // namespace
