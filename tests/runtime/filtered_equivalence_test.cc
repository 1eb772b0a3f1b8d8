// Filtered-delivery equivalence: a broker-side filter must deliver exactly
// the subsequence an unfiltered subscription delivers after client-side
// filtering — same records, same order, same offsets, same headers, same
// commit state. Proven over a seeded random workload both in-process
// (runtime::Subscription against the ConcurrentBroker) and over the socket
// (client::Subscription against pubsubd with the SUBSCRIBE filter block). The
// broker-side path is the whole point of the interest index; this suite is
// the proof that it buys O(matching) fanout without changing semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/collector.h"
#include "pubsub/filter.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/shard_pool.h"
#include "server/pubsubd.h"

namespace runtime {
namespace {

constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

std::string RandomKey(common::Rng& rng, std::size_t max_len = 4) {
  const std::size_t len = rng.Below(max_len + 1);
  std::string key;
  for (std::size_t i = 0; i < len; ++i) {
    key.push_back(static_cast<char>('a' + rng.Below(3)));
  }
  return key;
}

pubsub::Headers RandomHeaders(common::Rng& rng) {
  pubsub::Headers headers;
  const std::size_t n = rng.Below(3);
  for (std::size_t i = 0; i < n; ++i) {
    headers.emplace_back(rng.Below(2) == 0 ? "h0" : "h1", rng.Below(2) == 0 ? "x" : "y");
  }
  return headers;
}

pubsub::Filter RandomFilter(common::Rng& rng) {
  pubsub::Filter f;
  switch (rng.Below(5)) {
    case 0:
      f.range = common::KeyRange::Single(RandomKey(rng));
      break;
    case 1:
      f.range.low = RandomKey(rng);
      f.range.high = rng.Below(3) == 0 ? std::string() : RandomKey(rng);
      break;
    case 2:
      f.key_prefix = RandomKey(rng, 2);
      break;
    case 3: {
      pubsub::HeaderPredicate p;
      p.name = rng.Below(2) == 0 ? "h0" : "h1";
      p.op = static_cast<pubsub::HeaderPredicate::Op>(rng.Below(3));
      p.value = rng.Below(2) == 0 ? "x" : "y";
      f.headers.push_back(std::move(p));
      f.key_prefix = rng.Below(2) == 0 ? std::string() : RandomKey(rng, 1);
      break;
    }
    default:
      f.key_prefix = RandomKey(rng, 1);
      break;
  }
  return f;
}

void ExpectSameSequence(const std::vector<pubsub::StoredMessage>& filtered,
                        const std::vector<pubsub::StoredMessage>& dropped,
                        const std::string& what) {
  ASSERT_EQ(filtered.size(), dropped.size()) << what;
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(filtered[i].offset, dropped[i].offset) << what << " at " << i;
    EXPECT_EQ(filtered[i].message.key, dropped[i].message.key) << what << " at " << i;
    EXPECT_EQ(filtered[i].message.value, dropped[i].message.value) << what << " at " << i;
    EXPECT_EQ(filtered[i].message.headers, dropped[i].message.headers) << what << " at " << i;
  }
}

TEST(FilteredEquivalenceTest, InProcessFilteredMatchesUnfilteredPlusDrop) {
  RuntimeOptions po;
  ShardPool pool(po);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("f", {.partitions = 1}).ok());

  common::Rng rng(kSeed);
  constexpr std::size_t kFilters = 12;
  constexpr std::size_t kMessages = 600;

  struct Pair {
    pubsub::Filter filter;
    std::unique_ptr<Subscription> filtered;
    std::unique_ptr<Subscription> plain;
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < kFilters; ++i) {
    Pair p;
    p.filter = RandomFilter(rng);
    SubscriptionOptions opts;
    opts.filter = p.filter;
    p.filtered = broker.Subscribe("f", 0, 0, opts);
    ASSERT_NE(p.filtered, nullptr);
    p.plain = broker.Subscribe("f", 0, 0);
    ASSERT_NE(p.plain, nullptr);
    pairs.push_back(std::move(p));
  }

  std::vector<pubsub::Message> published;
  for (std::size_t i = 0; i < kMessages; ++i) {
    pubsub::Message msg;
    msg.key = RandomKey(rng);
    msg.value = "v" + std::to_string(i);
    msg.headers = RandomHeaders(rng);
    ASSERT_TRUE(broker.PublishSync("f", msg, 0).ok());
    published.push_back(std::move(msg));
  }

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Pair& p = pairs[i];
    std::size_t expect = 0;
    for (const pubsub::Message& m : published) {
      if (p.filter.Matches(m)) {
        ++expect;
      }
    }
    // Drain both sides to exhaustion (the filtered side may need several
    // pump rounds to scan past long non-matching stretches).
    std::vector<pubsub::StoredMessage> filtered;
    std::vector<pubsub::StoredMessage> dropped;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (filtered.size() < expect && std::chrono::steady_clock::now() < deadline) {
      if (p.filtered->PollBatch(&filtered, 64) == 0) {
        (void)p.filtered->Wait(5'000);
      }
    }
    std::vector<pubsub::StoredMessage> all;
    while (all.size() < kMessages && std::chrono::steady_clock::now() < deadline) {
      if (p.plain->PollBatch(&all, 256) == 0) {
        (void)p.plain->Wait(5'000);
      }
    }
    ASSERT_EQ(all.size(), kMessages) << "pair " << i;
    for (pubsub::StoredMessage& sm : all) {
      if (p.filter.Matches(sm.message)) {
        dropped.push_back(std::move(sm));
      }
    }
    ExpectSameSequence(filtered, dropped, "pair " + std::to_string(i));
    // No phantom extras: one more poll on the filtered side stays empty.
    std::vector<pubsub::StoredMessage> extra;
    EXPECT_EQ(p.filtered->PollBatch(&extra, 16), 0u) << "pair " << i;

    // Commit/ack state agrees: committing each side's last-delivered offset
    // reads back identically (sequences are identical, so cursors are too).
    if (!filtered.empty()) {
      const std::string group_f = "gf" + std::to_string(i);
      const std::string group_d = "gd" + std::to_string(i);
      broker.CommitOffset(group_f, 0, filtered.back().offset + 1);
      broker.CommitOffset(group_d, 0, dropped.back().offset + 1);
      EXPECT_EQ(broker.CommittedOffset(group_f, 0), broker.CommittedOffset(group_d, 0));
    }
  }

  pairs.clear();
  pool.Stop();
}

struct NetHarness {
  NetHarness() {
    runtime::RuntimeOptions po;
    po.obs = &obs;
    pool = std::make_unique<runtime::ShardPool>(po);
    broker = std::make_unique<runtime::ConcurrentBroker>(pool.get());
    watch = std::make_unique<runtime::ConcurrentWatchService>(pool.get());
    pool->Start();
    server::ServerOptions so;
    so.obs = &obs;
    server = std::make_unique<server::Server>(broker.get(), watch.get(), &pool->metrics(), so);
    EXPECT_TRUE(server->Start().ok());
  }

  ~NetHarness() {
    server->Stop();
    pool->Stop();
  }

  common::MetricsRegistry obs_metrics;
  obs::Collector obs{&obs_metrics};
  std::unique_ptr<runtime::ShardPool> pool;
  std::unique_ptr<runtime::ConcurrentBroker> broker;
  std::unique_ptr<runtime::ConcurrentWatchService> watch;
  std::unique_ptr<server::Server> server;
};

TEST(FilteredEquivalenceTest, OverTheSocketFilteredMatchesUnfilteredPlusDrop) {
  NetHarness h;
  ASSERT_TRUE(h.broker->CreateTopic("f", {.partitions = 1}).ok());

  common::Rng rng(kSeed ^ 0x50c4e7);
  constexpr std::size_t kFilters = 4;
  constexpr std::size_t kMessages = 200;

  auto publisher = client::Client::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(publisher.ok());

  std::vector<pubsub::Filter> filters;
  std::vector<std::unique_ptr<client::Client>> clients;
  std::vector<std::unique_ptr<client::Subscription>> filtered_subs;
  std::vector<std::unique_ptr<client::Subscription>> plain_subs;
  for (std::size_t i = 0; i < kFilters; ++i) {
    filters.push_back(RandomFilter(rng));
    auto cf = client::Client::Connect("127.0.0.1", h.server->port());
    ASSERT_TRUE(cf.ok());
    auto sf = (*cf)->Subscribe("f", 0, 0, 64, filters.back());
    ASSERT_TRUE(sf.ok()) << sf.status().message();
    filtered_subs.push_back(std::move(*sf));
    clients.push_back(std::move(*cf));
    auto cp = client::Client::Connect("127.0.0.1", h.server->port());
    ASSERT_TRUE(cp.ok());
    auto sp = (*cp)->Subscribe("f", 0, 0, 256);
    ASSERT_TRUE(sp.ok());
    plain_subs.push_back(std::move(*sp));
    clients.push_back(std::move(*cp));
  }

  std::vector<pubsub::Message> published;
  for (std::size_t i = 0; i < kMessages; ++i) {
    pubsub::Message msg;
    msg.key = RandomKey(rng);
    msg.value = "v" + std::to_string(i);
    msg.headers = RandomHeaders(rng);
    ASSERT_TRUE((*publisher)
                    ->Publish("f", msg.key, msg.value, 0, net::PublishAck::kOffset, nullptr, 0,
                              msg.headers)
                    .ok());
    published.push_back(std::move(msg));
  }

  for (std::size_t i = 0; i < kFilters; ++i) {
    std::size_t expect = 0;
    for (const pubsub::Message& m : published) {
      if (filters[i].Matches(m)) {
        ++expect;
      }
    }
    std::vector<pubsub::StoredMessage> filtered;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (filtered.size() < expect && std::chrono::steady_clock::now() < deadline) {
      (void)filtered_subs[i]->Poll(&filtered, 64, 100'000);
    }
    std::vector<pubsub::StoredMessage> all;
    while (all.size() < kMessages && std::chrono::steady_clock::now() < deadline) {
      (void)plain_subs[i]->Poll(&all, 256, 100'000);
    }
    ASSERT_EQ(all.size(), kMessages) << "filter " << i;
    // Every record crosses the wire with its headers.
    for (std::size_t k = 0; k < kMessages; ++k) {
      EXPECT_EQ(all[k].message.headers, published[k].headers) << "filter " << i << " at " << k;
    }
    std::vector<pubsub::StoredMessage> dropped;
    for (pubsub::StoredMessage& sm : all) {
      if (filters[i].Matches(sm.message)) {
        dropped.push_back(std::move(sm));
      }
    }
    ExpectSameSequence(filtered, dropped, "socket filter " + std::to_string(i));
  }
  filtered_subs.clear();
  plain_subs.clear();
  clients.clear();
}

// Concurrent filtered subscribe/unsubscribe/append churn: the TSan target.
// Worker threads churn filtered subscriptions (each drains a little, then
// cancels) while a publisher streams appends; the interest index absorbs
// registration, matching, and teardown traffic on the owner shard while the
// subscriptions' consumer side runs on foreign threads.
TEST(FilteredEquivalenceTest, ConcurrentFilteredChurnIsRaceFree) {
  RuntimeOptions po;
  ShardPool pool(po);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("churn", {.partitions = 1}).ok());

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    common::Rng rng(kSeed ^ 0x9ab);
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      pubsub::Message msg;
      msg.key = RandomKey(rng);
      msg.value = std::to_string(i++);
      msg.headers = RandomHeaders(rng);
      (void)broker.PublishSync("churn", std::move(msg), 0);
    }
  });

  constexpr int kChurners = 4;
  std::vector<std::thread> churners;
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&, t] {
      common::Rng rng(kSeed + static_cast<std::uint64_t>(t));
      for (int round = 0; round < 60; ++round) {
        SubscriptionOptions opts;
        opts.filter = RandomFilter(rng);
        auto sub = broker.Subscribe("churn", 0, 0, opts);
        ASSERT_NE(sub, nullptr);
        std::vector<pubsub::StoredMessage> got;
        for (int polls = 0; polls < 5; ++polls) {
          if (sub->PollBatch(&got, 32) == 0) {
            (void)sub->Wait(1'000);
          }
        }
        for (const pubsub::StoredMessage& sm : got) {
          EXPECT_TRUE(opts.filter->Matches(sm.message));
        }
        // ~Subscription tears the interest down mid-stream.
      }
    });
  }
  for (std::thread& t : churners) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  // Every churned interest was deregistered with its subscription.
  std::size_t interests = 0;
  pool.RunFenced([&] {
    for (std::size_t s = 0; s < pool.options().shards; ++s) {
      interests += pool.core(s).broker->PendingInterests();
    }
  });
  EXPECT_EQ(interests, 0u);
  pool.Stop();
}

}  // namespace
}  // namespace runtime
