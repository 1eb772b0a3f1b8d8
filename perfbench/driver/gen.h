// Seeded input generation for the benchmark workloads.
//
// Everything a workload offers the system — arrival schedule, record keys,
// partitions, subscription filters — is a pure function of (workload, seed).
// The generator owns its own RNG and Zipf sampler so that a change to the
// system's libraries can never change the inputs the benchmark offers.
#ifndef PERFBENCH_DRIVER_GEN_H_
#define PERFBENCH_DRIVER_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/filter.h"

namespace perfbench {

// SplitMix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Exponential(double mean) { return -mean * std::log1p(-Uniform()); }

 private:
  std::uint64_t state_;
};

inline std::uint64_t Mix64(std::uint64_t x) { return Rng(x).Next(); }

// Zipf(theta) ranks over [0, n), rank 0 hottest (Gray et al., as in YCSB).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    zetan_ = Zeta(n, theta);
    const double zeta2 = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  std::uint64_t Draw(Rng& rng) const {
    const double u = rng.Uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const auto r = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                              std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  static double Zeta(std::uint64_t n, double theta) {
    double sum = 0;
    for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_theta_ = 0;
};

enum class Kind { kInprocTail, kWireAck, kFilteredReplay, kDurableIngest };

// A workload's fixed shape. Offered rates are constants of the workload and
// are never recalibrated per run, so two commits see identical load.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  double rate_per_s;        // Open-loop records per second; 0 = closed loop.
  std::uint32_t partitions;
  std::size_t shards;
  std::size_t fanout;       // Subscribers (inproc), streams (wire), filters (filtered).
  std::size_t backlog;      // Records preloaded during set-up.
  std::size_t batch;        // Records per arrival, sent as one TryPublishBatch (durable).
  double warmup_s;          // Unmeasured lead-in before the window.
  std::uint64_t retain;     // Per-partition log cap (records); 0 = none.
  std::uint32_t key_universe = 10'000;
  double zipf_theta = 0.99;
  std::size_t value_bytes = 64;
};

inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {.name = "inproc_tail", .kind = Kind::kInprocTail, .rate_per_s = 20'000,
       .partitions = 8, .shards = 1, .fanout = 1, .backlog = 20'000,
       .batch = 1, .warmup_s = 0.3, .retain = 0},
      {.name = "wire_ack", .kind = Kind::kWireAck, .rate_per_s = 0,
       .partitions = 1, .shards = 1, .fanout = 3, .backlog = 20'000,
       .batch = 1, .warmup_s = 0.3, .retain = 50'000},
      // The window opens after the catch-up, which takes about 0.7 s.
      {.name = "filtered_replay", .kind = Kind::kFilteredReplay, .rate_per_s = 500,
       .partitions = 2, .shards = 1, .fanout = 1'000, .backlog = 20'000,
       .batch = 1, .warmup_s = 1.5, .retain = 0},
      // Well below the pool's saturation (about 150,000 records/s on 4 cores).
      {.name = "durable_ingest", .kind = Kind::kDurableIngest, .rate_per_s = 40'000,
       .partitions = 4, .shards = 2, .fanout = 1, .backlog = 20'000,
       .batch = 32, .warmup_s = 0.3, .retain = 25'000},
  };
  return kAll;
}

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Stable rank -> key mapping: zero padded, so key order is rank order and
// prefixes select contiguous rank blocks.
inline std::string KeyAt(std::uint64_t rank) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06llu", static_cast<unsigned long long>(rank));
  return buf;
}

// Explicit partition of a key rank for the workloads that route themselves.
inline std::uint32_t PartitionOf(std::uint32_t rank, std::uint32_t partitions) {
  return static_cast<std::uint32_t>(Mix64(0x5eed0000ULL + rank) % partitions);
}

// Record values carry the record's sequence number in their first 8 bytes,
// so every delivery identifies the input it came from.
inline std::string ValueFor(std::uint32_t seq, std::size_t bytes) {
  std::string v(bytes < 8 ? 8 : bytes, 'v');
  for (int i = 0; i < 8; ++i) v[static_cast<std::size_t>(i)] = static_cast<char>((std::uint64_t{seq} >> (8 * i)) & 0xff);
  return v;
}

inline bool SeqOf(std::string_view value, std::uint32_t* seq) {
  if (value.size() < 8) return false;
  std::uint64_t s = 0;
  for (int i = 7; i >= 0; --i) s = (s << 8) | static_cast<unsigned char>(value[static_cast<std::size_t>(i)]);
  if (s > 0xffffffffULL) return false;
  *seq = static_cast<std::uint32_t>(s);
  return true;
}

// One generated record. Its sequence number is its index in the stream.
struct Input {
  std::uint32_t rank = 0;
  std::uint32_t partition = 0;
  std::int64_t due_ns = 0;  // Open loop: offset from the schedule epoch.
};

enum class StreamTag : std::uint64_t { kLive = 1, kBacklog = 2, kFilters = 3 };

inline std::uint64_t StreamSeed(const WorkloadSpec& spec, std::uint64_t seed, StreamTag tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = spec.name; *p != '\0'; ++p) h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  return Mix64(h ^ Mix64(seed) ^ (static_cast<std::uint64_t>(tag) << 56));
}

class InputStream {
 public:
  InputStream(const WorkloadSpec& spec, std::uint64_t seed, StreamTag tag)
      : spec_(spec),
        rng_(StreamSeed(spec, seed, tag)),
        zipf_(spec.key_universe, spec.zipf_theta),
        mean_gap_ns_(spec.rate_per_s > 0 ? 1e9 * static_cast<double>(spec.batch) / spec.rate_per_s
                                         : 0) {}

  // Records arrive spec.batch at a time: each run of spec.batch consecutive
  // records shares one due time.
  Input Next() {
    Input in;
    if (mean_gap_ns_ > 0) {
      if (drawn_++ % spec_.batch == 0) due_ns_ += rng_.Exponential(mean_gap_ns_);
      in.due_ns = static_cast<std::int64_t>(due_ns_);
    }
    in.rank = static_cast<std::uint32_t>(zipf_.Draw(rng_));
    in.partition = PartitionOf(in.rank, spec_.partitions);
    return in;
  }

 private:
  const WorkloadSpec& spec_;
  Rng rng_;
  Zipf zipf_;
  double mean_gap_ns_;
  double due_ns_ = 0;
  std::uint64_t drawn_ = 0;
};

// One filtered subscription of filtered_replay: bench_fanout's interest mix
// (80% exact hot keys, 10% prefixes, 9% short ranges, 1% match-everything).
struct FilterSpec {
  std::uint32_t partition = 0;
  pubsub::Filter filter;
};

inline std::vector<FilterSpec> MakeFilters(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<FilterSpec> out;
  if (spec.kind != Kind::kFilteredReplay) return out;
  Rng rng(StreamSeed(spec, seed, StreamTag::kFilters));
  const Zipf zipf(spec.key_universe, spec.zipf_theta);
  out.reserve(spec.fanout);
  // Exact shares, not sampled ones: which kind a filter is follows from its
  // index, so every seed has the same mix and only the keys vary.
  for (std::size_t i = 0; i < spec.fanout; ++i) {
    FilterSpec fs;
    const std::size_t share = i % 100;
    const std::uint64_t rank = zipf.Draw(rng);
    // Alternating partitions; an exact-key filter sits where its key lives.
    fs.partition = static_cast<std::uint32_t>((i / 100) % spec.partitions);
    if (share < 80) {
      fs.filter.range = common::KeyRange::Single(KeyAt(rank));
      fs.partition = PartitionOf(static_cast<std::uint32_t>(rank), spec.partitions);
    } else if (share < 90) {
      fs.filter.key_prefix = KeyAt(rank).substr(0, 4 + rng.Below(3));
    } else if (share < 99) {
      const std::uint64_t span = 1 + rng.Below(50);
      fs.filter.range = common::KeyRange{KeyAt(rank), KeyAt(std::min<std::uint64_t>(rank + span, spec.key_universe))};
    }
    out.push_back(std::move(fs));
  }
  return out;
}

// FNV-1a over the first records of every stream plus the filter set: printed
// by every run so two runs can be shown to have offered the same inputs.
inline std::uint64_t InputDigest(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t records = 4096) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  };
  for (StreamTag tag : {StreamTag::kLive, StreamTag::kBacklog}) {
    InputStream s(spec, seed, tag);
    for (std::size_t i = 0; i < records; ++i) {
      const Input in = s.Next();
      mix(&in.rank, sizeof(in.rank));
      mix(&in.partition, sizeof(in.partition));
      mix(&in.due_ns, sizeof(in.due_ns));
    }
  }
  for (const FilterSpec& f : MakeFilters(spec, seed)) {
    const std::string key = f.filter.CanonicalKey();
    mix(&f.partition, sizeof(f.partition));
    mix(key.data(), key.size());
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_GEN_H_
