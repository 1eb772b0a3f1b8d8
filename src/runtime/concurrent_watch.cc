#include "runtime/concurrent_watch.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.h"
#include "watch/watch_system.h"

namespace runtime {

// Shared state of one logical (user-visible) session fanned out across
// shards. Sub-handles are owned here; their Cancel calls are posted to the
// owning shard because WatchSystem session state is shard-confined.
struct ConcurrentWatchService::LogicalSession {
  std::mutex mu;
  watch::WatchCallback* user = nullptr;  // Null after Cancel.
  bool resynced = false;
  // Parallel arrays: sub-session i lives on shards[i].
  std::vector<std::size_t> shards;
  std::vector<std::unique_ptr<watch::WatchHandle>> subs;
};

// Per-shard callback adapter: serializes into the user callback and enforces
// the "nothing after resync" half of the contract across shards.
class ConcurrentWatchService::FanCallback : public watch::WatchCallback {
 public:
  FanCallback(ConcurrentWatchService* service, std::shared_ptr<LogicalSession> session)
      : service_(service), session_(std::move(session)) {}

  void OnEvent(const common::ChangeEvent& event) override {
    std::lock_guard<std::mutex> lock(session_->mu);
    if (session_->user == nullptr || session_->resynced) {
      service_->post_resync_drops_->Increment();
      return;
    }
    session_->user->OnEvent(event);
  }

  void OnProgress(const common::ProgressEvent& event) override {
    std::lock_guard<std::mutex> lock(session_->mu);
    if (session_->user == nullptr || session_->resynced) {
      return;
    }
    session_->user->OnProgress(event);
  }

  void OnResync() override {
    watch::WatchCallback* user = nullptr;
    {
      std::lock_guard<std::mutex> lock(session_->mu);
      if (session_->resynced) {
        return;  // Another shard already resynced this logical session.
      }
      session_->resynced = true;
      user = session_->user;
    }
    service_->watch_resyncs_->Increment();
    // Cancel the sibling sub-sessions so their shards stop scheduling
    // deliveries. Best-effort TryPost from a worker thread (a blocking push
    // across shards could cycle); if a shard is saturated, its deliveries are
    // dropped facade-side above — loud either way.
    for (std::size_t i = 0; i < session_->shards.size(); ++i) {
      watch::WatchHandle* sub = session_->subs[i].get();
      auto session = session_;
      (void)service_->pool_->TryPost(session_->shards[i], [session, sub] { sub->Cancel(); });
    }
    if (user != nullptr) {
      user->OnResync();
    }
  }

 private:
  ConcurrentWatchService* service_;
  std::shared_ptr<LogicalSession> session_;
};

class ConcurrentWatchService::Handle : public watch::WatchHandle {
 public:
  Handle(ConcurrentWatchService* service, std::shared_ptr<LogicalSession> session,
         std::vector<std::shared_ptr<FanCallback>> fans)
      : service_(service), session_(std::move(session)), fans_(std::move(fans)) {}

  ~Handle() override { Cancel(); }

  void Cancel() override {
    {
      std::lock_guard<std::mutex> lock(session_->mu);
      if (session_->user == nullptr) {
        return;
      }
      session_->user = nullptr;
    }
    // Detach shard-side: posted to each owner (Post blocks rather than drops,
    // and runs inline once the pool is stopped). Closures keep the session —
    // and through it the sub-handles — alive until every shard detached, and
    // the fan callbacks outlive any in-flight delivery via fans_.
    for (std::size_t i = 0; i < session_->shards.size(); ++i) {
      watch::WatchHandle* sub = session_->subs[i].get();
      auto session = session_;
      auto fans = fans_;
      service_->pool_->Post(session_->shards[i], [session, fans, sub] { sub->Cancel(); });
    }
  }

  bool active() const override {
    std::lock_guard<std::mutex> lock(session_->mu);
    return session_->user != nullptr && !session_->resynced;
  }

 private:
  ConcurrentWatchService* service_;
  std::shared_ptr<LogicalSession> session_;
  std::vector<std::shared_ptr<FanCallback>> fans_;
};

ConcurrentWatchService::ConcurrentWatchService(ShardPool* pool) : pool_(pool) {
  splits_ = pool_->options().watch_splits;
  const std::size_t shards = pool_->shard_count();
  if (splits_.empty() && shards > 1) {
    // Even split of the single-byte prefix space; workloads with a known key
    // distribution should pass explicit splits.
    for (std::size_t s = 1; s < shards; ++s) {
      splits_.push_back(common::Key(1, static_cast<char>((256 * s) / shards)));
    }
  }
  assert(splits_.size() == shards - 1 && "watch_splits must have shards-1 ascending keys");
  common::MetricsRegistry& metrics = pool_->metrics();
  ingest_accepted_ = &metrics.counter("runtime.ingest_accepted");
  ingest_rejected_ = &metrics.counter("runtime.ingest_rejected");
  watch_resyncs_ = &metrics.counter("runtime.watch_resyncs");
  post_resync_drops_ = &metrics.counter("runtime.post_resync_drops");
}

ConcurrentWatchService::~ConcurrentWatchService() = default;

std::size_t ConcurrentWatchService::OwnerShard(const common::Key& key) const {
  // First split strictly greater than key gives the owning slot.
  const auto it = std::upper_bound(splits_.begin(), splits_.end(), key);
  return static_cast<std::size_t>(it - splits_.begin());
}

common::KeyRange ConcurrentWatchService::ShardRange(std::size_t shard) const {
  common::KeyRange range;
  range.low = shard == 0 ? common::Key() : splits_[shard - 1];
  range.high = shard == splits_.size() ? common::Key() : splits_[shard];
  return range;
}

common::Status ConcurrentWatchService::TryIngest(const common::ChangeEvent& event,
                                                 common::TimeMicros* retry_after) {
  const std::size_t shard = OwnerShard(event.key);
  watch::WatchSystem* system = pool_->core(shard).watch.get();
  common::ChangeEvent traced = event;
  if (obs::TracingEnabled() && !traced.trace.considered()) {
    // Origin here (not on the shard) so origin→append covers the queue wait.
    traced.trace = obs::TraceContext::Start();
  }
  if (!pool_->TryPost(shard, [system, traced = std::move(traced)] { system->Append(traced); })) {
    ingest_rejected_->Increment();
    return pool_->Backpressure(shard, "saturated", retry_after);
  }
  ingest_accepted_->Increment();
  return common::Status::Ok();
}

void ConcurrentWatchService::Append(const common::ChangeEvent& event) {
  const std::size_t shard = OwnerShard(event.key);
  watch::WatchSystem* system = pool_->core(shard).watch.get();
  common::ChangeEvent traced = event;
  if (obs::TracingEnabled() && !traced.trace.considered()) {
    traced.trace = obs::TraceContext::Start();
  }
  pool_->Post(shard, [system, traced = std::move(traced)] { system->Append(traced); });
  ingest_accepted_->Increment();
}

void ConcurrentWatchService::Progress(const common::ProgressEvent& event) {
  for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
    const common::KeyRange slice = ShardRange(s).Intersect(event.range);
    if (slice.Empty()) {
      continue;
    }
    watch::WatchSystem* system = pool_->core(s).watch.get();
    const common::ProgressEvent scoped{slice, event.version};
    pool_->Post(s, [system, scoped] { system->Progress(scoped); });
  }
}

std::unique_ptr<watch::WatchHandle> ConcurrentWatchService::Watch(
    common::Key low, common::Key high, common::Version version,
    watch::WatchCallback* callback) {
  watch::Filter filter;
  filter.range = common::KeyRange{std::move(low), std::move(high)};
  return WatchFiltered(std::move(filter), version, callback);
}

std::unique_ptr<watch::WatchHandle> ConcurrentWatchService::WatchFiltered(
    watch::Filter filter, common::Version version, watch::WatchCallback* callback) {
  if (!filter.headers.empty()) {
    return nullptr;  // Change events carry no headers; see WatchSystem.
  }
  const common::KeyRange range = filter.range;
  auto session = std::make_shared<LogicalSession>();
  session->user = callback;
  std::vector<std::shared_ptr<FanCallback>> fans;

  std::vector<std::size_t> owners;
  for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
    if (ShardRange(s).Overlaps(range)) {
      owners.push_back(s);
    }
  }

  auto attach = [&](std::size_t s, ShardCore& core) {
    watch::Filter slice = filter;
    slice.range = ShardRange(s).Intersect(range);
    auto fan = std::make_shared<FanCallback>(this, session);
    session->shards.push_back(s);
    session->subs.push_back(core.watch->WatchFiltered(std::move(slice), version, fan.get()));
    fans.push_back(std::move(fan));
  };

  if (owners.size() == 1) {
    pool_->RunOn(owners[0], [&](ShardCore& core) { attach(owners[0], core); });
  } else {
    // Multi-range watch: a fenced multi-shard task. Registering every
    // sub-session while all shards are parked gives the session a consistent
    // cut — no event can slip between the registrations.
    pool_->RunFenced([&] {
      for (std::size_t s : owners) {
        attach(s, pool_->core(s));
      }
    });
  }
  return std::make_unique<Handle>(this, std::move(session), std::move(fans));
}

ConcurrentWatchService::Stats ConcurrentWatchService::TotalStats() {
  Stats stats;
  pool_->RunFenced([&] {
    for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
      const watch::WatchSystem& system = *pool_->core(s).watch;
      stats.events_delivered += system.events_delivered();
      stats.resyncs_sent += system.resyncs_sent();
      stats.active_sessions += system.active_sessions();
      stats.retained_events += system.retained_events();
    }
  });
  return stats;
}

}  // namespace runtime
