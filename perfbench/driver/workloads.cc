// The four benchmark workloads, driven against the real runtime / pubsub /
// wal / server / client stack from one process.
//
// Thread budget (host nproc is 4): the generator runs on the calling thread,
// and the shard workers and, in wire_ack, the pubsubd loop make up the rest;
// together they never exceed 4 threads. Consumers are extra: inproc_tail runs
// one per subscription, parked in Subscription::Wait; the other in-process
// workloads run one that drains every subscription through ready hooks.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "driver/driver.h"
#include "driver/reference.h"
#include "driver/stats.h"
#include "runtime/concurrent_broker.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "server/pubsubd.h"
#include "wal/fault_vfs.h"

namespace perfbench {
namespace {

constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr std::int64_t kLateNs = 100'000;  // The generator counts as late past this.
constexpr double kMaxLateUs = 1e6;         // A run whose generator fell further behind is invalid.
constexpr std::size_t kPollMax = 256;
constexpr std::size_t kPreloadBatch = 256;
constexpr double kClosedLoopMaxRate = 200'000;  // Sizes per-record arrays only.
const char* const kTopic = "bench";
const char* const kWalDir = "wal";
constexpr common::TimeMicros kDeliverTimeoutUs = 1'000'000;
constexpr int kSetups = 3;  // Stack builds per repetition; setup_s is their median.

// kPark brackets Subscription::Wait; kReadyPark the bench-side ready set.
enum SpanName : std::uint32_t { kGen, kPost, kConsume, kPoll, kPark, kReadyPark, kSpanNames };

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Per-record timestamps indexed by sequence number, sized up front; untouched
// pages cost no memory. Cross-thread access goes through atomic_ref.
class SeqArray {
 public:
  explicit SeqArray(std::size_t capacity)
      : data_(new std::int64_t[capacity]), capacity_(capacity) {}
  std::size_t capacity() const { return capacity_; }
  void Set(std::size_t i, std::int64_t v) {
    std::atomic_ref<std::int64_t>(data_[i]).store(v, std::memory_order_release);
  }
  std::int64_t Get(std::size_t i) const {
    return std::atomic_ref<std::int64_t>(data_[i]).load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<std::int64_t[]> data_;
  std::size_t capacity_;
};

// Rank -> key, built once per run outside every timed section.
std::vector<std::string> KeyTable(const WorkloadSpec& spec) {
  std::vector<std::string> keys;
  for (std::uint32_t r = 0; r < spec.key_universe; ++r) keys.push_back(KeyAt(r));
  return keys;
}

// The bench-side doorbell shared by every subscription of a workload: each
// subscription's ready hook marks its index, and the one consumer thread
// parks here instead of in per-subscription Wait calls.
class ReadySet {
 public:
  explicit ReadySet(std::size_t n) : flagged_(n, 0) {}

  void Mark(std::uint32_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (flagged_[i] != 0) return;
      flagged_[i] = 1;
      ready_.push_back(i);
    }
    cv_.notify_one();
  }

  // Moves the marked indices into *out, waiting up to `timeout_us` for one.
  void Take(std::vector<std::uint32_t>* out, std::int64_t timeout_us) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [&] { return !ready_.empty(); });
    out->clear();
    out->swap(ready_);
    for (std::uint32_t i : *out) flagged_[i] = 0;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint32_t> ready_;
  std::vector<std::uint8_t> flagged_;
};

struct Sub {
  std::unique_ptr<runtime::Subscription> sub;
  std::uint32_t partition = 0;
  pubsub::Offset first = 0;  // The offset it opened at.
  const pubsub::Filter* filter = nullptr;
  std::vector<Delivery> got;
};

// What the generator and the consumer both need to classify records.
struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool Contains(std::int64_t t) const { return t >= start_ns && t < end_ns; }
};

// Events per 100 ms slice of the window. The median slice is the typical
// rate; a host stall that empties a few slices does not move it, where it
// would move a mean over the whole window.
class SliceCounts {
 public:
  static constexpr std::int64_t kSliceNs = 100'000'000;

  void Init(const Window& w) {
    window_ = w;
    counts_.assign(static_cast<std::size_t>((w.end_ns - w.start_ns + kSliceNs - 1) / kSliceNs), 0);
  }
  void Add(std::int64_t t) {
    if (window_.Contains(t)) ++counts_[static_cast<std::size_t>((t - window_.start_ns) / kSliceNs)];
  }
  void Merge(const SliceCounts& o) {
    for (std::size_t i = 0; i < counts_.size() && i < o.counts_.size(); ++i) counts_[i] += o.counts_[i];
  }
  double MedianPerSecond() const {
    if (counts_.empty()) return 0;
    std::vector<std::uint64_t> sorted = counts_;
    std::sort(sorted.begin(), sorted.end());
    return static_cast<double>(sorted[sorted.size() / 2]) * 1e9 / static_cast<double>(kSliceNs);
  }

 private:
  Window window_;
  std::vector<std::uint64_t> counts_;
};

// Records one batch of deliveries for a subscription. Shared by the
// consumer thread and the final drain on the main thread.
struct DeliverySink {
  const SeqArray* origin = nullptr;
  Window window;
  std::vector<double> latency_us;
  SliceCounts delivered;
  std::uint64_t total = 0;
  std::uint64_t malformed = 0;

  void Record(const std::vector<pubsub::StoredMessage>& batch, std::vector<Delivery>* got) {
    const std::int64_t now = NowNs();
    for (const pubsub::StoredMessage& m : batch) {
      std::uint32_t seq = 0;
      if (!SeqOf(m.message.value, &seq) || seq >= origin->capacity()) {
        ++malformed;
        continue;
      }
      got->push_back(Delivery{seq, static_cast<std::uint32_t>(m.offset)});
      const std::int64_t o = origin->Get(seq);
      if (window.Contains(o)) latency_us.push_back(Us(now - o));
      delivered.Add(now);
    }
    total += batch.size();
  }

  void Merge(const DeliverySink& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    delivered.Merge(o.delivered);
    total += o.total;
    malformed += o.malformed;
  }
};

// One consumer thread with its own sink and span log. Given one subscription
// and no ready set it parks in Subscription::Wait, the consumer path of the
// runtime's API; otherwise it parks on `ready`, which the subscriptions'
// ready hooks fill, as pubsubd's event loop does.
class Consumer {
 public:
  Consumer(std::vector<Sub*> subs, ReadySet* ready, const DeliverySink& sink, bool trace)
      : subs_(std::move(subs)), ready_(ready), sink_(sink), spans_(trace ? &log_ : nullptr) {}
  ~Consumer() { Stop(); }
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  // `caught_up`, when set, is polled about every millisecond until it first
  // holds; the time it took from `since_ns` is then caught_up_s().
  void Start(std::function<bool()> caught_up = nullptr, std::int64_t since_ns = 0) {
    caught_up_ = std::move(caught_up);
    since_ns_ = since_ns;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  // After Stop: drains whatever is still buffered on the calling thread.
  void DrainAll() {
    for (Sub* s : subs_) DrainOne(*s);
  }
  const DeliverySink& sink() const { return sink_; }
  SpanLog* spans() { return &log_; }
  std::uint64_t polled() const { return polled_; }
  double caught_up_s() const { return caught_up_s_; }

 private:
  void DrainOne(Sub& s) {
    for (;;) {
      batch_.clear();
      std::size_t n = 0;
      {
        ScopedSpan poll(spans_, kPoll);
        n = s.sub->PollBatch(&batch_, kPollMax);
      }
      if (n == 0) return;
      polled_ += n;
      sink_.Record(batch_, &s.got);
      if (n < kPollMax) return;
    }
  }

  void Loop() {
    std::vector<std::uint32_t> ready;
    std::int64_t next_check = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      ScopedSpan consume(spans_, kConsume);
      if (ready_ == nullptr) {
        bool data = false;
        {
          ScopedSpan park(spans_, kPark);
          data = subs_[0]->sub->Wait(2000);
        }
        if (data) DrainOne(*subs_[0]);
      } else {
        {
          ScopedSpan park(spans_, kReadyPark);
          ready_->Take(&ready, 2000);
        }
        for (std::uint32_t i : ready) DrainOne(*subs_[i]);
      }
      if (caught_up_ && caught_up_s_ == 0) {
        const std::int64_t now = NowNs();
        if (now >= next_check) {
          next_check = now + 1'000'000;
          if (caught_up_()) caught_up_s_ = static_cast<double>(NowNs() - since_ns_) / 1e9;
        }
      }
    }
  }

  std::vector<Sub*> subs_;
  ReadySet* ready_;
  DeliverySink sink_;
  SpanLog log_;
  SpanLog* spans_;
  std::function<bool()> caught_up_;
  std::int64_t since_ns_ = 0;
  double caught_up_s_ = 0;
  std::vector<pubsub::StoredMessage> batch_;
  std::uint64_t polled_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Sleeps to just short of `t_ns`, then spins the last few microseconds.
void SleepUntil(std::int64_t t_ns) {
  constexpr std::int64_t kSpinNs = 15'000;
  for (;;) {
    const std::int64_t left = t_ns - NowNs();
    if (left <= 0) return;
    if (left > kSpinNs) std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  }
}

// Counters and probes sampled at both ends of the generator's run.
struct Probe {
  ProcSample proc;
  std::int64_t tasks = 0, batches = 0, rejected = 0, rings = 0, bytes_out = 0, frames_out = 0;

  static Probe Take(common::MetricsRegistry& m) {
    Probe p;
    p.proc = SampleProc();
    p.tasks = m.counter("runtime.tasks_run").value();
    p.batches = m.counter("runtime.batches_run").value();
    p.rejected = m.counter("runtime.post_rejected").value();
    p.rings = m.counter("runtime.doorbell_rings").value();
    p.bytes_out = m.counter("net.bytes_out").value();
    p.frames_out = m.counter("net.frames_out").value();
    return p;
  }
};

// Everything one repetition measured, turned into metrics at the end.
struct Measured {
  SliceCounts published;
  std::uint64_t published_total = 0;  // Over the generator's whole run.
  std::vector<double> ack_us;
  std::vector<double> ack_after_post_us;
  std::vector<double> gen_late_us;
  std::uint64_t gen_late = 0;
  std::vector<double> ring_depth;
  std::uint64_t retries = 0;
  Probe before, after;
};

void AddEndToEnd(const Measured& m, DeliverySink* sink, double setup_s, RunResult* r) {
  const Summary d = Summarize(&sink->latency_us);
  std::vector<double> acks = m.ack_us;
  const Summary a = Summarize(&acks);
  r->metrics["deliver_p50_us"] = d.p50;
  r->metrics["deliver_p99_us"] = d.p99;
  r->metrics["deliver_p90_us"] = d.p90;
  r->metrics["ack_p90_us"] = a.p90;
  r->metrics["ack_p50_us"] = a.p50;
  r->metrics["ack_p99_us"] = a.p99;
  r->metrics["delivered_per_s"] = sink->delivered.MedianPerSecond();
  r->metrics["published_per_s"] = m.published.MedianPerSecond();
  r->metrics["setup_s"] = setup_s;
  r->metrics["peak_rss_mb"] = PeakRssMb();
  r->info["deliver_samples"] = static_cast<double>(d.count);
  r->info["deliver_tail_percentile"] = d.tail_percentile;
  r->info["deliver_tail_us"] = d.tail;
  r->info["ack_samples"] = static_cast<double>(a.count);
  r->info["ack_tail_percentile"] = a.tail_percentile;
  r->info["ack_tail_us"] = a.tail;
  if (d.count == 0 || a.count == 0) r->Fail("no latency samples in the measured window");
}

// Per-layer metrics the traced run takes from its own timers and counters.
void AddTraced(const Measured& m, const std::vector<SpanLog*>& logs, std::uint64_t polled,
               std::uint64_t deliveries, common::MetricsRegistry* metrics, bool durable,
               RunResult* r) {
  std::vector<SelfTime> self(kSpanNames);
  for (SpanLog* log : logs) {
    std::vector<SelfTime> t = SelfTimes(log->spans(), kSpanNames);
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      self[i].total_ns += t[i].total_ns;
      self[i].count += t[i].count;
      self[i].durations_ns.insert(self[i].durations_ns.end(), t[i].durations_ns.begin(),
                                  t[i].durations_ns.end());
    }
  }
  Summary post = Summarize(&self[kPost].durations_ns);
  Summary park = Summarize(&self[kPark].durations_ns);
  std::vector<double> aap = m.ack_after_post_us, late = m.gen_late_us, depth = m.ring_depth;
  const double recs = std::max<double>(1.0, static_cast<double>(m.published_total));
  const double dels = std::max<double>(1.0, static_cast<double>(deliveries));
  auto& x = r->metrics;
  x["runtime.post_ns_p50"] = post.p50;
  x["runtime.post_ns_p99"] = post.p99;
  x["runtime.ack_after_post_us"] = Summarize(&aap).p50;
  x["runtime.publish_retries_per_msg"] = static_cast<double>(m.retries) / recs;
  x["runtime.post_rejected_per_msg"] = static_cast<double>(m.after.rejected - m.before.rejected) / recs;
  x["runtime.ring_depth_p99"] = Summarize(&depth).p99;
  x["runtime.tasks_per_batch"] =
      static_cast<double>(m.after.tasks - m.before.tasks) /
      std::max<double>(1.0, static_cast<double>(m.after.batches - m.before.batches));
  const common::Histogram& wake = metrics->histogram("runtime.wakeup_latency_us");
  x["runtime.wakeup_p50_us"] = wake.Percentile(50);
  x["runtime.wakeup_p99_us"] = wake.Percentile(99);
  x["runtime.doorbell_rings_per_record"] = static_cast<double>(m.after.rings - m.before.rings) / dels;
  x["runtime.poll_ns_per_record"] =
      polled > 0 ? self[kPoll].total_ns / static_cast<double>(polled) : 0;
  x["runtime.wait_park_us"] = park.p50 / 1e3;
  x["net.bytes_out_per_record"] = static_cast<double>(m.after.bytes_out - m.before.bytes_out) / recs;
  x["net.frames_out_per_record"] = static_cast<double>(m.after.frames_out - m.before.frames_out) / recs;
  const double syscw = static_cast<double>(m.after.proc.write_syscalls - m.before.proc.write_syscalls);
  x["proc.write_syscalls_per_record"] = syscw / recs;
  x["wal.write_syscalls_per_record"] = durable ? syscw / recs : 0;
  x["proc.vol_ctx_switches_per_record"] =
      static_cast<double>(m.after.proc.vol_ctx_switches - m.before.proc.vol_ctx_switches) / recs;
  x["proc.cpu_s_per_mrecord"] = (m.after.proc.cpu_s - m.before.proc.cpu_s) / recs * 1e6;
  x["bench.gen_late_p99_us"] = Summarize(&late).p99;
  x["bench.gen_late_ratio"] =
      m.gen_late_us.empty() ? 0 : static_cast<double>(m.gen_late) / static_cast<double>(m.gen_late_us.size());
  x["bench.consumer_self_ns_per_record"] = self[kConsume].total_ns / dels;
  x["bench.gen_self_ns_per_record"] = self[kGen].total_ns / recs;
  std::uint64_t dropped = 0;
  for (SpanLog* log : logs) dropped += log->dropped();
  r->info["spans_dropped"] = static_cast<double>(dropped);
}

// -- In-process runtime stack (inproc_tail, filtered_replay, durable_ingest) ---

struct RuntimeStack {
  common::MetricsRegistry metrics;
  // durable_ingest's WAL tree, in memory: on the checkout's disk, file-system
  // noise moved throughput by 20% between runs. The ledger times real files.
  std::unique_ptr<wal::FaultVfs> vfs;
  std::unique_ptr<runtime::ShardPool> pool;
  std::unique_ptr<runtime::ConcurrentBroker> broker;
  std::unique_ptr<ReadySet> ready;
  std::vector<Sub> subs;
  std::int64_t subscribe_start_ns = 0;

  RuntimeStack() = default;
  RuntimeStack(const RuntimeStack&) = delete;
  RuntimeStack& operator=(const RuntimeStack&) = delete;
  ~RuntimeStack() { Destroy(); }

  void Close() {
    for (Sub& s : subs) {
      if (s.sub) s.sub->SetReadyHook(nullptr);
    }
    subs.clear();
    // The pool joins its workers, so no ready hook can still be running when
    // `ready` is destroyed after this.
    if (pool) pool->Stop();
  }

  // Tears the stack down; the WAL tree stays readable until the stack dies.
  void Destroy() {
    Close();
    pool.reset();
  }
};

// wire_ack and durable_ingest cap each partition's log, so memory does not
// grow with throughput (a faster system must not read as a bigger one).
pubsub::TopicConfig TopicConfigFor(const WorkloadSpec& spec) {
  pubsub::TopicConfig c;
  c.partitions = spec.partitions;
  c.retention.max_messages = spec.retain;
  return c;
}

runtime::RuntimeOptions PoolOptions(const WorkloadSpec& spec) {
  runtime::RuntimeOptions o;
  o.shards = spec.shards;
  if (spec.kind == Kind::kDurableIngest) o.queue_capacity = 32;
  return o;
}

// Posts one single-shard batch, riding out backpressure with the retry hint.
common::Status PostBatch(runtime::ConcurrentBroker* broker,
                         const std::shared_ptr<runtime::PublishBatch>& batch) {
  for (;;) {
    common::TimeMicros retry = 0;
    common::Status st = broker->TryPublishBatch(kTopic, batch, &retry);
    if (st.code() != common::StatusCode::kUnavailable) return st;
    std::this_thread::sleep_for(std::chrono::microseconds(retry));
  }
}

// Publishes the workload's backlog in single-shard batches (routed by key
// hash, as TryPublishBatch routes) and waits until the shards appended it.
bool Preload(const RunConfig& cfg, const std::vector<std::string>& keys, runtime::ShardPool* pool,
             runtime::ConcurrentBroker* broker, std::vector<std::vector<LogEntry>>* logs,
             SeqArray* origin, std::string* why) {
  const WorkloadSpec& spec = *cfg.spec;
  logs->assign(spec.partitions, {});
  std::vector<std::shared_ptr<runtime::PublishBatch>> pending(spec.shards);
  auto post = [&](std::size_t shard) {
    const common::Status s = PostBatch(broker, pending[shard]);
    pending[shard].reset();
    if (!s.ok()) *why = "backlog publish: " + s.message();
    return s.ok();
  };
  InputStream backlog(spec, cfg.seed, StreamTag::kBacklog);
  for (std::uint32_t seq = 0; seq < spec.backlog; ++seq) {
    const std::uint32_t rank = backlog.Next().rank;
    const auto p = static_cast<std::uint32_t>(pubsub::Broker::HashKey(keys[rank]) % spec.partitions);
    const std::size_t shard = broker->OwnerShard(p);
    if (!pending[shard]) pending[shard] = std::make_shared<runtime::PublishBatch>(kPreloadBatch);
    pending[shard]->Add(keys[rank], ValueFor(seq, spec.value_bytes));
    origin->Set(seq, 0);
    (*logs)[p].push_back(LogEntry{seq, rank});
    if (pending[shard]->size() == kPreloadBatch && !post(shard)) return false;
  }
  for (std::size_t shard = 0; shard < pending.size(); ++shard) {
    if (pending[shard] && !post(shard)) return false;
  }
  pool->Quiesce();
  return true;
}

// Builds the stack through opening the subscriptions. Fills `logs` with the
// preloaded backlog. Returns false (with `why`) on any set-up failure.
bool BuildRuntime(const RunConfig& cfg, const std::vector<std::string>& keys,
                  const std::vector<FilterSpec>& filters,
                  RuntimeStack* st, std::vector<std::vector<LogEntry>>* logs, SeqArray* origin,
                  std::string* why) {
  const WorkloadSpec& spec = *cfg.spec;
  runtime::RuntimeOptions o = PoolOptions(spec);
  if (spec.kind == Kind::kDurableIngest) {
    st->vfs = std::make_unique<wal::FaultVfs>();
    o.durable_vfs = st->vfs.get();
    o.durable_dir = kWalDir;
    o.replication_factor = 2;
    o.ack_mode = wal::replication::AckMode::kQuorum;
  }
  st->pool = std::make_unique<runtime::ShardPool>(o, &st->metrics);
  st->broker = std::make_unique<runtime::ConcurrentBroker>(st->pool.get());
  st->pool->Start();
  if (!st->pool->durable_status().ok()) {
    *why = "durable open failed: " + st->pool->durable_status().message();
    return false;
  }
  const common::Status created = st->broker->CreateTopic(kTopic, TopicConfigFor(spec));
  if (!created.ok()) {
    *why = "create topic: " + created.message();
    return false;
  }
  if (!Preload(cfg, keys, st->pool.get(), st->broker.get(), logs, origin, why)) return false;
  // One subscription per (subscriber, partition), or per filter.
  const std::size_t n = spec.kind == Kind::kFilteredReplay ? filters.size()
                        : spec.kind == Kind::kInprocTail   ? spec.fanout * spec.partitions
                                                           : spec.partitions;
  // inproc_tail's consumers park in Subscription::Wait; the others share one
  // ready set.
  if (spec.kind != Kind::kInprocTail) st->ready = std::make_unique<ReadySet>(n);
  st->subs.resize(n);
  st->subscribe_start_ns = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    Sub& s = st->subs[i];
    runtime::SubscriptionOptions so;
    so.wake_coalesce_us = 0;  // Ring on every empty->nonempty push.
    if (spec.kind == Kind::kFilteredReplay) {
      s.partition = filters[i].partition;
      s.filter = &filters[i].filter;
      so.filter = filters[i].filter;
    } else {
      s.partition = static_cast<std::uint32_t>(i % spec.partitions);
    }
    // filtered_replay catches up over the backlog; the others follow the tail.
    s.first = spec.kind == Kind::kFilteredReplay ? 0 : (*logs)[s.partition].size();
    s.sub = st->broker->Subscribe(kTopic, s.partition, s.first, so);
    if (!s.sub) {
      *why = "subscribe failed";
      return false;
    }
    if (ReadySet* ready = st->ready.get()) {
      const auto idx = static_cast<std::uint32_t>(i);
      s.sub->SetReadyHook([ready, idx] { ready->Mark(idx); });
    }
  }
  return true;
}

RunResult RunRuntimeWorkload(const RunConfig& cfg) {
  const WorkloadSpec& spec = *cfg.spec;
  RunResult r;
  const std::vector<FilterSpec> filters = MakeFilters(spec, cfg.seed);
  const std::vector<std::string> keys = KeyTable(spec);
  const double rate = spec.rate_per_s > 0 ? spec.rate_per_s : kClosedLoopMaxRate;
  SeqArray origin(spec.backlog + static_cast<std::size_t>(rate * (cfg.seconds + spec.warmup_s + 1) * 1.3));
  SeqArray ack(origin.capacity());
  SeqArray post_ret(origin.capacity());
  std::vector<std::vector<LogEntry>> logs;

  // Set-up, several times: setup_s is the median; the last stack is measured.
  std::vector<double> setup_times;
  std::unique_ptr<RuntimeStack> st;
  for (int k = 0; k < kSetups; ++k) {
    if (st) st->Destroy();
    st = std::make_unique<RuntimeStack>();
    std::string why;
    const std::int64_t t0 = NowNs();
    if (!BuildRuntime(cfg, keys, filters, st.get(), &logs, &origin, &why)) {
      r.Fail(why);
      return r;
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  SpanLog gen_spans;
  SpanLog* gspans = cfg.trace ? &gen_spans : nullptr;
  DeliverySink sink;  // Each consumer records into its own copy; merged after.
  sink.origin = &origin;
  const std::int64_t t0 = NowNs() + 1'000'000;
  sink.window = Window{t0 + static_cast<std::int64_t>(spec.warmup_s * 1e9),
                       t0 + static_cast<std::int64_t>((spec.warmup_s + cfg.seconds) * 1e9)};
  sink.delivered.Init(sink.window);
  std::vector<std::unique_ptr<Consumer>> consumers;
  if (st->ready) {
    std::vector<Sub*> all;
    for (Sub& s : st->subs) all.push_back(&s);
    consumers.push_back(std::make_unique<Consumer>(std::move(all), st->ready.get(), sink, cfg.trace));
  } else {
    for (Sub& s : st->subs) {
      consumers.push_back(std::make_unique<Consumer>(std::vector<Sub*>{&s}, nullptr, sink, cfg.trace));
    }
  }
  std::function<bool()> caught_up;
  if (spec.kind == Kind::kFilteredReplay) {
    std::vector<pubsub::Offset> backlog_end(spec.partitions, 0);
    for (std::size_t p = 0; p < logs.size(); ++p) backlog_end[p] = logs[p].size();
    caught_up = [&st, backlog_end] {
      for (const Sub& s : st->subs) {
        if (s.sub->cursor() < backlog_end[s.partition]) return false;
      }
      return true;
    };
  }
  for (auto& c : consumers) c->Start(caught_up, st->subscribe_start_ns);

  Measured m;
  m.published.Init(sink.window);
  std::atomic<std::uint64_t> async_failures{0};
  InputStream live(spec, cfg.seed, StreamTag::kLive);
  auto sample_depth = [&] {
    std::size_t depth = 0;
    for (std::size_t s = 0; s < st->pool->shard_count(); ++s) depth = std::max(depth, st->pool->queue_depth(s));
    m.ring_depth.push_back(static_cast<double>(depth));
  };
  if (cfg.trace) st->metrics.histogram("runtime.wakeup_latency_us").Reset();
  m.before = Probe::Take(st->metrics);
  std::uint32_t seq = static_cast<std::uint32_t>(spec.backlog);

  // Open loop: Poisson arrivals on a fixed schedule; latency is charged
  // from each record's due time.
  auto arrive = [&](std::int64_t due) {
    SleepUntil(due);
    const std::int64_t late = NowNs() - due;
    if (sink.window.Contains(due)) {
      m.gen_late_us.push_back(Us(late));
      if (late > kLateNs) ++m.gen_late;
    }
  };
  if (spec.kind != Kind::kDurableIngest) {
    for (;; ++seq) {
      const Input in = live.Next();
      const std::int64_t due = t0 + in.due_ns;
      if (due >= sink.window.end_ns) break;
      if (seq >= origin.capacity()) {
        r.Fail("record arrays exhausted");
        break;
      }
      arrive(due);
      ScopedSpan gen(gspans, kGen);
      origin.Set(seq, due);
      common::TimeMicros retry = 0;
      common::Status s;
      {
        ScopedSpan post(gspans, kPost);
        s = st->broker->TryPublishAsync(
            kTopic, pubsub::Message{keys[in.rank], ValueFor(seq, spec.value_bytes)}, in.partition,
            &retry, [&ack, &async_failures, seq](common::Result<pubsub::PublishResult> res) {
              ack.Set(seq, NowNs());
              if (!res.ok()) async_failures.fetch_add(1, std::memory_order_relaxed);
            });
      }
      ++r.attempted;
      if (!s.ok()) {
        ++r.failed;
        continue;
      }
      if (cfg.trace) {
        post_ret.Set(seq, NowNs());
        if ((seq & 15) == 0) sample_depth();
      }
      logs[in.partition].push_back(LogEntry{seq, in.rank});
      ++m.published_total;
      m.published.Add(due);
    }
  } else {
    // Each arrival brings spec.batch records; they go out as one
    // TryPublishBatch per owner shard (all-or-nothing), riding out
    // backpressure with the shard's retry hint.
    auto partition_of = [&](std::uint32_t rank) {
      return static_cast<std::uint32_t>(pubsub::Broker::HashKey(keys[rank]) % spec.partitions);
    };
    std::vector<std::shared_ptr<runtime::PublishBatch>> pending(spec.shards);
    std::vector<std::vector<LogEntry>> pending_recs(spec.shards);
    for (;;) {
      Input in = live.Next();
      const std::int64_t due = t0 + in.due_ns;
      if (due >= sink.window.end_ns) break;
      if (seq + spec.batch > origin.capacity()) {
        r.Fail("record arrays exhausted");
        break;
      }
      for (std::size_t k = 0; k < spec.batch; ++k, ++seq) {
        if (k > 0) in = live.Next();
        const std::size_t shard = st->broker->OwnerShard(partition_of(in.rank));
        if (!pending[shard]) pending[shard] = std::make_shared<runtime::PublishBatch>(spec.batch);
        pending[shard]->Add(keys[in.rank], ValueFor(seq, spec.value_bytes));
        pending_recs[shard].push_back(LogEntry{seq, in.rank});
        origin.Set(seq, due);
      }
      arrive(due);
      ScopedSpan gen(gspans, kGen);
      for (std::size_t shard = 0; shard < pending.size(); ++shard) {
        if (!pending[shard]) continue;
        common::Status s;
        for (;;) {
          common::TimeMicros retry = 0;
          {
            ScopedSpan post(gspans, kPost);
            s = st->broker->TryPublishBatch(kTopic, pending[shard], &retry);
          }
          if (cfg.trace) sample_depth();
          if (s.code() != common::StatusCode::kUnavailable) break;
          ++m.retries;
          std::this_thread::sleep_for(std::chrono::microseconds(retry));
        }
        const std::int64_t accepted = NowNs();
        r.attempted += pending_recs[shard].size();
        if (!s.ok()) {
          r.failed += pending_recs[shard].size();
        } else {
          for (const LogEntry& e : pending_recs[shard]) {
            logs[partition_of(e.rank)].push_back(e);
            ack.Set(e.seq, accepted);
            ++m.published_total;
            m.published.Add(due);
          }
        }
        pending[shard].reset();
        pending_recs[shard].clear();
      }
    }
  }
  m.after = Probe::Take(st->metrics);

  // Wait for every subscription's shard-side cursor to pass its partition's
  // end, then drain what is buffered.
  st->pool->Quiesce();
  const std::int64_t drain_start = NowNs();
  for (const Sub& s : st->subs) {
    // A filtered cursor parks after its last matching record.
    const std::size_t need = MatchingEnd(logs[s.partition], s.filter, keys);
    while (s.sub->cursor() < need && NowNs() - drain_start < kDrainTimeoutNs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::vector<SpanLog*> span_logs = {&gen_spans};
  std::uint64_t polled = 0;
  for (auto& c : consumers) {
    c->Stop();
    c->DrainAll();
    sink.Merge(c->sink());
    span_logs.push_back(c->spans());
    polled += c->polled();
  }

  // -- Correctness ---------------------------------------------------------------
  for (std::size_t i = 0; i < st->subs.size(); ++i) {
    const Sub& s = st->subs[i];
    const std::string bad = CheckDeliveries(logs[s.partition], s.filter, keys, s.got, s.first);
    if (!bad.empty()) {
      r.Fail("subscription " + std::to_string(i) + ": " + bad);
      break;
    }
  }
  for (std::size_t shard = 0; shard < st->pool->shard_count(); ++shard) {
    std::uint64_t appended = 0, accepted = 0;
    for (std::uint32_t p = 0; p < spec.partitions; ++p) {
      if (st->broker->OwnerShard(p) != shard) continue;
      appended += st->broker->EndOffset(kTopic, p);
      accepted += logs[p].size();
    }
    if (appended != accepted) {
      r.Fail("shard " + std::to_string(shard) + " appended " + std::to_string(appended) +
             " records but accepted " + std::to_string(accepted));
    }
  }
  if (sink.malformed > 0) r.Fail("malformed deliveries");
  r.failed += async_failures.load();
  r.failed += static_cast<std::uint64_t>(st->metrics.counter("runtime.slow_consumer.drops").value());
  if (!m.gen_late_us.empty() &&
      *std::max_element(m.gen_late_us.begin(), m.gen_late_us.end()) > kMaxLateUs) {
    r.Fail("the open-loop generator fell more than 1 s behind its schedule");
  }

  // -- Metrics -------------------------------------------------------------------
  for (std::size_t p = 0; p < logs.size(); ++p) {
    for (const LogEntry& e : logs[p]) {
      const std::int64_t o = origin.Get(e.seq);
      if (!sink.window.Contains(o)) continue;
      m.ack_us.push_back(Us(ack.Get(e.seq) - o));
      if (cfg.trace && spec.kind != Kind::kDurableIngest) {
        m.ack_after_post_us.push_back(Us(ack.Get(e.seq) - post_ret.Get(e.seq)));
      }
    }
  }
  AddEndToEnd(m, &sink, Median(setup_times), &r);
  if (spec.kind == Kind::kFilteredReplay) {
    r.metrics["catchup_s"] = consumers.front()->caught_up_s();
    if (r.metrics["catchup_s"] == 0) r.Fail("filtered subscriptions never caught up with the backlog");
  }
  if (cfg.trace) {
    AddTraced(m, span_logs, polled, sink.total, &st->metrics, spec.kind == Kind::kDurableIngest, &r);
    r.metrics["server.echo_rtt_p50_us"] = 0;
  }
  r.info["records_published"] = static_cast<double>(m.published_total);
  r.info["deliveries"] = static_cast<double>(sink.total);

  // -- durable_ingest: reopen the WAL tree and recover every acked record -------
  if (spec.kind == Kind::kDurableIngest) {
    st->Destroy();
    runtime::RuntimeOptions o = PoolOptions(spec);
    o.durable_vfs = st->vfs.get();
    o.durable_dir = kWalDir;
    o.replication_factor = 2;
    common::MetricsRegistry metrics;
    runtime::ShardPool reopened(o, &metrics);
    if (!reopened.durable_status().ok()) {
      r.Fail("WAL recovery failed: " + reopened.durable_status().message());
    }
    // Retention keeps each partition's newest spec.retain records.
    for (std::uint32_t p = 0; p < spec.partitions && r.correct; ++p) {
      pubsub::Broker* b = reopened.core(p % reopened.shard_count()).broker.get();
      const pubsub::Offset first = b->FirstOffset(kTopic, p);
      const auto got = b->Fetch(kTopic, p, first, logs[p].size() + 1);
      if (!got.ok() || b->EndOffset(kTopic, p) != logs[p].size() ||
          first + got->size() != logs[p].size()) {
        r.Fail("partition " + std::to_string(p) + " recovered up to offset " +
               std::to_string(got.ok() ? first + got->size() : 0) + " of " +
               std::to_string(logs[p].size()) + " acked records");
        break;
      }
      for (std::size_t i = 0; i < got->size(); ++i) {
        std::uint32_t got_seq = 0;
        if (!SeqOf((*got)[i].message.value, &got_seq) || got_seq != logs[p][first + i].seq) {
          r.Fail("partition " + std::to_string(p) + " recovered a different record at offset " +
                 std::to_string(first + i));
          break;
        }
      }
    }
  }
  return r;
}

// -- wire_ack: pubsubd on loopback ------------------------------------------------

struct WireStack {
  std::unique_ptr<runtime::ShardPool> pool;
  std::unique_ptr<runtime::ConcurrentBroker> broker;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<client::Client> publisher;
  std::unique_ptr<client::Client> subscriber;
  std::vector<std::unique_ptr<client::Subscription>> streams;

  WireStack() = default;
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;
  ~WireStack() {
    streams.clear();
    subscriber.reset();
    publisher.reset();
    if (server) server->Stop();
    if (pool) pool->Stop();
  }
};

client::ClientOptions WireClientOptions(const char* name) {
  client::ClientOptions o;
  o.client_name = name;
  o.auto_heartbeat = false;  // The server's liveness window is set past the run.
  return o;
}

bool BuildWire(const RunConfig& cfg, const std::vector<std::string>& keys, WireStack* st,
               std::vector<std::vector<LogEntry>>* logs, SeqArray* origin, std::string* why) {
  const WorkloadSpec& spec = *cfg.spec;
  st->pool = std::make_unique<runtime::ShardPool>(PoolOptions(spec));
  st->broker = std::make_unique<runtime::ConcurrentBroker>(st->pool.get());
  st->pool->Start();
  server::ServerOptions so;
  so.heartbeat_interval_us = 3600 * common::kMicrosPerSecond;
  st->server = std::make_unique<server::Server>(st->broker.get(), nullptr, &st->pool->metrics(), so);
  common::Status s = st->server->Start();
  if (s.ok()) s = st->broker->CreateTopic(kTopic, TopicConfigFor(spec));
  if (!s.ok()) {
    *why = "server set-up: " + s.message();
    return false;
  }
  if (!Preload(cfg, keys, st->pool.get(), st->broker.get(), logs, origin, why)) return false;
  auto pub = client::Client::Connect("127.0.0.1", st->server->port(), WireClientOptions("bench-pub"));
  auto sub = client::Client::Connect("127.0.0.1", st->server->port(), WireClientOptions("bench-sub"));
  if (!pub.ok() || !sub.ok()) {
    *why = "connect failed";
    return false;
  }
  st->publisher = std::move(*pub);
  st->subscriber = std::move(*sub);
  for (std::size_t i = 0; i < spec.fanout; ++i) {
    auto stream = st->subscriber->Subscribe(kTopic, 0, spec.backlog, kPollMax);
    if (!stream.ok()) {
      *why = "subscribe: " + stream.status().message();
      return false;
    }
    st->streams.push_back(std::move(*stream));
  }
  return true;
}

RunResult RunWire(const RunConfig& cfg) {
  const WorkloadSpec& spec = *cfg.spec;
  RunResult r;
  const std::vector<std::string> keys = KeyTable(spec);
  SeqArray origin(spec.backlog +
                  static_cast<std::size_t>(kClosedLoopMaxRate * (cfg.seconds + spec.warmup_s + 1)));
  std::vector<std::vector<LogEntry>> logs;
  std::vector<double> setup_times;
  std::unique_ptr<WireStack> st;
  for (int k = 0; k < kSetups; ++k) {
    st.reset();
    st = std::make_unique<WireStack>();
    std::string why;
    const std::int64_t t0 = NowNs();
    if (!BuildWire(cfg, keys, st.get(), &logs, &origin, &why)) {
      r.Fail(why);
      return r;
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<LogEntry>& log = logs[0];
  std::vector<std::vector<Delivery>> got(st->streams.size());
  DeliverySink sink;
  sink.origin = &origin;
  const std::int64_t t0 = NowNs() + 1'000'000;
  sink.window = Window{t0 + static_cast<std::int64_t>(spec.warmup_s * 1e9),
                       t0 + static_cast<std::int64_t>((spec.warmup_s + cfg.seconds) * 1e9)};
  sink.delivered.Init(sink.window);

  // Closed loop on one thread that drives both connections: it publishes,
  // awaits the kOffset ack, then reads the subscriber connection until every
  // stream holds the record. With the pubsubd loop and the shard that is
  // three threads.
  SpanLog gen_spans;
  SpanLog* spans = cfg.trace ? &gen_spans : nullptr;
  Measured m;
  m.published.Init(sink.window);
  InputStream live(spec, cfg.seed, StreamTag::kLive);
  std::vector<pubsub::StoredMessage> batch;
  m.before = Probe::Take(st->pool->metrics());
  SleepUntil(t0);
  for (auto seq = static_cast<std::uint32_t>(spec.backlog); NowNs() < sink.window.end_ns && r.correct;
       ++seq) {
    if (seq >= origin.capacity()) {
      r.Fail("record arrays exhausted");
      break;
    }
    const Input in = live.Next();
    ScopedSpan gen(spans, kGen);
    const std::int64_t sent = NowNs();
    origin.Set(seq, sent);
    pubsub::PublishResult res;
    common::Status s;
    {
      ScopedSpan post(spans, kPost);
      s = st->publisher->Publish(kTopic, keys[in.rank], ValueFor(seq, spec.value_bytes), 0,
                                 net::PublishAck::kOffset, &res);
    }
    const std::int64_t acked = NowNs();
    if (cfg.trace && (seq & 15) == 0) {
      m.ring_depth.push_back(static_cast<double>(st->pool->queue_depth(0)));
    }
    ++r.attempted;
    if (!s.ok() || res.offset != log.size()) {
      ++r.failed;
      if (s.ok()) r.Fail("ack offset " + std::to_string(res.offset) + " out of log order");
      continue;
    }
    log.push_back(LogEntry{seq, in.rank});
    ++m.published_total;
    m.published.Add(sent);
    if (sink.window.Contains(sent)) m.ack_us.push_back(Us(acked - sent));
    ScopedSpan consume(spans, kConsume);
    for (std::size_t i = 0; i < st->streams.size() && r.correct; ++i) {
      while (spec.backlog + got[i].size() < log.size()) {
        batch.clear();
        std::size_t n = 0;
        {
          ScopedSpan poll(spans, kPoll);
          n = st->streams[i]->Poll(&batch, kPollMax, kDeliverTimeoutUs);
        }
        if (n == 0) {
          r.Fail("stream " + std::to_string(i) + " did not deliver seq " + std::to_string(seq));
          break;
        }
        sink.Record(batch, &got[i]);
      }
    }
  }
  m.after = Probe::Take(st->pool->metrics());

  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string bad = CheckDeliveries(log, nullptr, keys, got[i], spec.backlog);
    if (!bad.empty()) {
      r.Fail("stream " + std::to_string(i) + ": " + bad);
      break;
    }
  }
  if (st->broker->EndOffset(kTopic, 0) != log.size()) r.Fail("appended != accepted on shard 0");
  if (sink.malformed > 0) r.Fail("malformed deliveries");

  AddEndToEnd(m, &sink, Median(setup_times), &r);
  if (cfg.trace) {
    AddTraced(m, {&gen_spans}, sink.total, sink.total, &st->pool->metrics(), false, &r);
    // pubsubd, not the benchmark, posts into and polls the runtime here; the
    // client's Poll includes its blocking wait.
    for (const char* n : {"runtime.post_ns_p50", "runtime.post_ns_p99", "runtime.poll_ns_per_record",
                          "runtime.wait_park_us"}) {
      r.metrics[n] = 0;
    }
    std::vector<double> echo;
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t e0 = NowNs();
      if (!st->publisher->Ping().ok()) {
        r.Fail("ping failed");
        break;
      }
      echo.push_back(Us(NowNs() - e0));
    }
    r.metrics["server.echo_rtt_p50_us"] = Summarize(&echo).p50;
  }
  r.info["records_published"] = static_cast<double>(m.published_total);
  r.info["deliveries"] = static_cast<double>(sink.total);
  return r;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult r = config.spec->kind == Kind::kWireAck ? RunWire(config) : RunRuntimeWorkload(config);
  if (r.attempted == 0) r.Fail("nothing was attempted");
  return r;
}

}  // namespace perfbench
