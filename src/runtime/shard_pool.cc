#include "runtime/shard_pool.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace runtime {

namespace {

// Pins the calling thread to `cpu`; false when the platform has no affinity
// support or the kernel refuses (cgroup cpuset, cpu offline). Callers treat
// false as "run unpinned", never as fatal.
bool PinCurrentThread(std::size_t cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace

ShardPool::ShardPool(RuntimeOptions options, common::MetricsRegistry* metrics)
    : options_(std::move(options)) {
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<common::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  tasks_run_ = &metrics_->counter("runtime.tasks_run");
  batches_run_ = &metrics_->counter("runtime.batches_run");
  post_rejected_ = &metrics_->counter("runtime.post_rejected");
  idle_polled_ = &metrics_->counter("runtime.idle_polled");
  idle_parked_ = &metrics_->counter("runtime.idle_parked");
  // A worker polls its empty ring only if every shard can keep a hardware
  // thread to itself: with shards >= threads, a polling worker would spin on
  // the core another shard (or the producer it waits for) needs.
  const bool may_poll = common::IdlePolicy::HardwareThreadToSpare(options_.shards);

  cores_.reserve(options_.shards);
  queues_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    auto core = std::make_unique<ShardCore>();
    core->sim = std::make_unique<sim::Simulator>(options_.seed + s);
    core->net = std::make_unique<sim::Network>(core->sim.get());
    core->broker = std::make_unique<pubsub::Broker>(core->sim.get(), core->net.get(),
                                                    "broker-" + std::to_string(s));
    watch::WatchSystemOptions wopts;
    wopts.window = options_.window;
    wopts.delivery_latency = 0;   // Deliveries flush at each batch boundary.
    wopts.progress_period = 0;    // Progress pumping needs tick > 0; disabled.
    wopts.max_session_backlog = options_.max_session_backlog;
    core->watch = std::make_unique<watch::WatchSystem>(core->sim.get(), /*net=*/nullptr,
                                                       "watch-" + std::to_string(s), wopts);
    if (options_.obs != nullptr) {
      core->broker->set_obs(options_.obs, s);
      core->watch->set_obs(options_.obs, s);
    }
    if (options_.durable_vfs != nullptr) {
      const std::string shard_dir = options_.durable_dir + "/shard-" + std::to_string(s);
      auto journal = wal::BrokerJournal::Open(options_.durable_vfs, shard_dir, options_.durable,
                                              metrics_, core->broker.get());
      if (journal.ok()) {
        core->journal = std::move(journal.value());
        if (options_.replication_factor > 1) {
          wal::replication::ReplicationOptions ropts;
          ropts.replication_factor = options_.replication_factor;
          ropts.ack_mode = options_.ack_mode;
          // Follower logs rotate like the leader's so a promoted tree hands
          // BrokerJournal::Open a familiarly-shaped directory.
          ropts.log_options = [durable = options_.durable](const std::string& id) {
            return id == "meta" ? durable.meta_log : durable.partition.log;
          };
          core->replication = std::make_unique<wal::replication::ReplicaSet>(
              core->sim.get(), options_.durable_vfs, shard_dir, "repl-" + std::to_string(s),
              metrics_, std::move(ropts));
          core->replication->AttachLeader(core->journal.get());
        }
      } else {
        core->durable_recovery_status = journal.status();
      }
    }
    cores_.push_back(std::move(core));
    queues_.push_back(std::make_unique<MpscQueue<Task>>(
        options_.queue_capacity, common::IdlePolicy(may_poll, idle_polled_, idle_parked_)));
    failing_over_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

ShardPool::~ShardPool() { Stop(); }

void ShardPool::Start() {
  std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  for (auto& queue : queues_) {
    queue->Reopen();
  }
  running_.store(true, std::memory_order_release);
  pinned_shards_.store(0, std::memory_order_release);
  // Pin only when every shard can own a distinct CPU: with fewer CPUs than
  // shards, pinning would stack workers on the low cores and serialize the
  // pool — worse than letting the scheduler spread them.
  const std::size_t cpus = std::thread::hardware_concurrency();
  const bool pin = options_.pin_shards && cpus >= cores_.size() && cpus > 0;
  workers_.reserve(cores_.size());
  for (std::size_t s = 0; s < cores_.size(); ++s) {
    workers_.emplace_back([this, s, pin] {
      if (pin && PinCurrentThread(s)) {
        pinned_shards_.fetch_add(1, std::memory_order_acq_rel);
        metrics_->gauge("runtime.shards_pinned")
            .Set(static_cast<std::int64_t>(pinned_shards_.load(std::memory_order_acquire)));
      }
      WorkerLoop(s);
    });
  }
  if (!pin) {
    metrics_->gauge("runtime.shards_pinned").Set(0);
  }
}

void ShardPool::Stop() {
  // The whole transition — close, join, flip running_ — happens under
  // lifecycle_mu_, so Post's inline fallback (which takes the same lock)
  // can never run a task on the caller's thread while a worker is still
  // draining its queue. Before this, a Push that lost the race with Close
  // fell back to inline execution concurrent with the worker — the
  // stall/teardown race runtime/subscription_test.cc pins down.
  std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  for (auto& queue : queues_) {
    queue->Close();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

void ShardPool::FlushSim(ShardCore& core) {
  // Advance the shard clock by the configured tick and run everything due,
  // including the zero-latency delivery chains scheduled by the batch just
  // executed. With tick == 0 this runs exactly the events at the current
  // instant, so periodic maintenance stays pending and runs are
  // deterministic.
  core.sim->RunUntil(core.sim->Now() + options_.tick);
}

void ShardPool::WorkerLoop(std::size_t shard) {
  ShardCore& core = *cores_[shard];
  MpscQueue<Task>& queue = *queues_[shard];
  std::vector<Task> batch;
  batch.reserve(options_.max_batch);
  for (;;) {
    batch.clear();
    const std::size_t n = queue.PopBatch(batch, options_.max_batch);
    if (n == 0) {
      break;  // Closed and drained.
    }
    for (Task& task : batch) {
      task();
    }
    FlushSim(core);
    tasks_run_->Increment(static_cast<std::int64_t>(n));
    batches_run_->Increment();
  }
  FlushSim(core);
}

common::TimeMicros ShardPool::RetryAfterHint(std::size_t shard) const {
  const common::TimeMicros base = std::max<common::TimeMicros>(1, options_.retry_after);
  const std::size_t cap = std::max<std::size_t>(1, options_.queue_capacity);
  const std::size_t depth = std::min(queue_depth(shard), cap);
  return base + (base * (kRetryHintMaxScale - 1)) * static_cast<common::TimeMicros>(depth) /
                    static_cast<common::TimeMicros>(cap);
}

common::Status ShardPool::Backpressure(std::size_t shard, const char* why,
                                       common::TimeMicros* retry_after) const {
  const bool stopped = !running();
  const common::TimeMicros backoff = stopped ? 0 : RetryAfterHint(shard);
  if (retry_after != nullptr) {
    *retry_after = backoff;
  }
  if (stopped) {
    return common::Status::FailedPrecondition("shard pool stopped");
  }
  return common::Status::Unavailable("shard " + std::to_string(shard) + " " + why +
                                     "; retry after " + std::to_string(backoff) + "us");
}

bool ShardPool::TryPost(std::size_t shard, Task task) {
  if (!running()) {
    return false;
  }
  if (!queues_[shard]->TryPush(std::move(task))) {
    post_rejected_->Increment();
    return false;
  }
  return true;
}

void ShardPool::Post(std::size_t shard, Task task) {
  if (running_.load(std::memory_order_acquire) && queues_[shard]->Push(std::move(task))) {
    return;
  }
  // Stopped pool — or a push that lost the race with Stop closing the
  // queues. Serialize with the Stop transition before running inline: once
  // lifecycle_mu_ is ours, the workers have been joined (or never started)
  // and the cores are single-threaded again.
  std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
  task();
  cores_[shard]->sim->RunUntil(cores_[shard]->sim->Now() + options_.tick);
}

void ShardPool::RunFenced(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> serialize(fence_mu_);
  // Hold the lifecycle for the fence's whole span: a Stop racing the fence
  // would otherwise close the queues under the barrier Posts and strand the
  // first barrier task inline on this thread, waiting for peers that can
  // never arrive.
  std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) {
    fn();
    for (auto& core : cores_) {
      FlushSim(*core);
    }
    return;
  }
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t arrived = 0;
    bool released = false;
  };
  auto barrier = std::make_shared<Barrier>();
  const std::size_t n = cores_.size();
  for (std::size_t s = 0; s < n; ++s) {
    // Blocking push: a fence must land even on a saturated shard. No deadlock
    // cycle is possible — fences are serialized and workers always drain.
    Post(s, [barrier, n] {
      std::unique_lock<std::mutex> lock(barrier->mu);
      if (++barrier->arrived == n) {
        barrier->cv.notify_all();
      }
      barrier->cv.wait(lock, [&] { return barrier->released; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(barrier->mu);
    barrier->cv.wait(lock, [&] { return barrier->arrived == n; });
  }
  // Every worker is parked inside the barrier wait; the barrier mutex
  // ordering makes their prior writes visible here and our writes visible to
  // them on release. Tasks earlier in a worker's current batch have run but
  // their zero-latency deliveries may not be flushed yet — flush before
  // handing the cores to fn so it sees settled state.
  for (auto& core : cores_) {
    FlushSim(*core);
  }
  fn();
  for (auto& core : cores_) {
    FlushSim(*core);
  }
  {
    std::lock_guard<std::mutex> lock(barrier->mu);
    barrier->released = true;
  }
  barrier->cv.notify_all();
}

common::Status ShardPool::durable_status() const {
  for (const auto& core : cores_) {
    if (!core->durable_recovery_status.ok()) {
      return core->durable_recovery_status;
    }
    if (core->journal != nullptr && !core->journal->status().ok()) {
      return core->journal->status();
    }
  }
  return common::Status::Ok();
}

common::Status ShardPool::FailoverShard(std::size_t shard) {
  common::Status result;
  RunFenced([&] {
    ShardCore& core = *cores_[shard];
    if (core.journal == nullptr || core.replication == nullptr) {
      result = common::Status::FailedPrecondition("shard " + std::to_string(shard) +
                                                  " has no replicated journal");
      return;
    }
    failing_over_[shard]->store(true, std::memory_order_release);
    auto promoted_dir = core.replication->Promote();
    if (!promoted_dir.ok()) {
      failing_over_[shard]->store(false, std::memory_order_release);
      result = promoted_dir.status();
      return;
    }
    // Build the replacement before destroying the old pair: ~Broker fires
    // every parked wakeup as an immediate sim event, and those wakeups
    // re-resolve the shard's broker through the pool — they must find the
    // new one.
    std::unique_ptr<pubsub::Broker> old_broker = std::move(core.broker);
    std::unique_ptr<wal::BrokerJournal> old_journal = std::move(core.journal);
    core.broker = std::make_unique<pubsub::Broker>(core.sim.get(), core.net.get(),
                                                   "broker-" + std::to_string(shard));
    if (options_.obs != nullptr) {
      core.broker->set_obs(options_.obs, shard);
    }
    auto journal = wal::BrokerJournal::Open(options_.durable_vfs, promoted_dir.value(),
                                            options_.durable, metrics_, core.broker.get());
    if (journal.ok()) {
      core.journal = std::move(journal.value());
      core.replication->AttachLeader(core.journal.get());
    } else {
      core.durable_recovery_status = journal.status();
      result = journal.status();
    }
    // The journal observes the broker it was opened with: detach it first.
    old_journal.reset();
    old_broker.reset();  // Parked wakeups fire here; RunFenced's post-fn
                         // flush runs them against the new broker.
    failing_over_[shard]->store(false, std::memory_order_release);
    metrics_->counter("runtime.failovers").Increment();
  });
  return result;
}

void ShardPool::Quiesce() {
  // With producers stopped, a fence observes every queue drained up to the
  // fence task and flushes all simulators (RunFenced flushes around fn).
  RunFenced([this] { SampleObsGauges(); });
}

void ShardPool::SampleObsGauges() {
  if (options_.obs == nullptr) {
    return;
  }
  common::MetricsRegistry& m = options_.obs->metrics();
  std::uint64_t total_backlog = 0;
  std::uint64_t max_lag = 0;
  for (std::size_t s = 0; s < cores_.size(); ++s) {
    ShardCore& core = *cores_[s];
    const std::string prefix = "obs.s" + std::to_string(s) + ".";
    std::uint64_t shard_backlog = 0;
    for (const pubsub::GroupId& group : core.broker->GroupIds()) {
      const pubsub::GroupView view = core.broker->ViewGroup(group);
      shard_backlog += core.broker->GroupBacklog(group, view.topic);
    }
    m.gauge(prefix + "pubsub.group_backlog").Set(static_cast<std::int64_t>(shard_backlog));
    total_backlog += shard_backlog;

    const common::Version maxv = core.watch->MaxIngestedVersion();
    std::uint64_t shard_lag = 0;
    core.watch->VisitSessions([&](const watch::WatchSystem::SessionInfo& info) {
      if (!info.live) {
        return;
      }
      const std::uint64_t lag = maxv > info.last_progress ? maxv - info.last_progress : 0;
      shard_lag = std::max(shard_lag, lag);
    });
    m.gauge(prefix + "watch.max_session_lag").Set(static_cast<std::int64_t>(shard_lag));
    max_lag = std::max(max_lag, shard_lag);

    m.gauge(prefix + "queue_depth").Set(static_cast<std::int64_t>(queue_depth(s)));
  }
  m.gauge("obs.pubsub.group_backlog").Set(static_cast<std::int64_t>(total_backlog));
  m.gauge("obs.watch.max_session_lag").Set(static_cast<std::int64_t>(max_lag));
  // Doorbell wakeup latency (data available on a shard → consumer drained
  // it), from the subscriptions' shared histogram. Zero until a subscription
  // has delivered through a wakeup.
  const common::Histogram& wakeup = metrics_->histogram("runtime.wakeup_latency_us");
  m.gauge("obs.runtime.wakeup_p50_us").Set(static_cast<std::int64_t>(wakeup.Percentile(50)));
  m.gauge("obs.runtime.wakeup_p99_us").Set(static_cast<std::int64_t>(wakeup.Percentile(99)));
}

}  // namespace runtime
