// Lightweight metrics used by the experiment harness and the concurrent
// runtime: counters, gauges-as-counters, and bounded sample histograms with
// percentile queries. Deterministic (no clock reads); values come from the
// simulator or from caller-supplied timestamps.
//
// Thread safety: Counter is lock-free (relaxed atomic); Histogram::Record and
// all Histogram queries take an internal mutex; MetricsRegistry lookup is
// mutex-guarded and returns references with stable addresses (std::map nodes
// never move), so shards may cache and hit them concurrently. The iteration
// accessors (counters()/histograms()) are for quiesced, single-threaded
// harness reads only.
#ifndef SRC_COMMON_METRICS_H_
#define SRC_COMMON_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace common {

class Counter {
 public:
  void Increment(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// A last-writer-wins sampled value (watermarks: delivery lag, queue depth).
// Unlike Counter it records a level, not a rate; samplers overwrite it.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Bounded histogram: count / sum / max are exact; percentile queries read a
// fixed-size reservoir (Vitter's algorithm R with a deterministically seeded
// Rng). Below the reservoir bound every sample is retained, so percentiles
// are exact there; above it they are unbiased estimates. Identical record
// sequences produce identical reservoirs, keeping experiment output
// reproducible.
class Histogram {
 public:
  static constexpr std::size_t kDefaultReservoirSize = 4096;
  static constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

  Histogram() : Histogram(kDefaultReservoirSize) {}
  explicit Histogram(std::size_t reservoir_size, std::uint64_t seed = kDefaultSeed)
      : reservoir_size_(reservoir_size == 0 ? 1 : reservoir_size), seed_(seed), rng_(seed) {}

  void Record(double sample) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    sum_ += sample;
    max_ = count_ == 1 ? sample : std::max(max_, sample);
    if (samples_.size() < reservoir_size_) {
      samples_.push_back(sample);
      return;
    }
    // Algorithm R: the i-th sample replaces a reservoir slot with
    // probability reservoir_size / i.
    const std::uint64_t j = rng_.Below(count_);
    if (j < reservoir_size_) {
      samples_[static_cast<std::size_t>(j)] = sample;
    }
  }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(count_);
  }

  double Sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }

  double Mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  double Max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : max_;
  }

  // p in [0, 100]. Exact while count() <= reservoir_size(); estimated beyond.
  double Percentile(double p) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

  std::size_t reservoir_size() const { return reservoir_size_; }

  // Samples currently held (== min(count, reservoir_size)); test hook for the
  // boundedness guarantee.
  std::size_t retained_samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.size();
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
    count_ = 0;
    sum_ = 0.0;
    max_ = 0.0;
    rng_ = Rng(seed_);  // Restart the sampling stream: Reset is deterministic.
  }

 private:
  mutable std::mutex mu_;
  std::size_t reservoir_size_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<double> samples_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

// A named registry so components can export metrics without wiring plumbing
// through every constructor. One registry per experiment run. Lookup may be
// called from any thread; the returned references stay valid for the
// registry's lifetime (Reset invalidates them).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return histograms_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[name];
  }

  // Quiesced-read iteration only: do not call concurrently with lookups that
  // may insert.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    histograms_.clear();
    gauges_.clear();
  }

 private:
  std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Gauge> gauges_;
};

}  // namespace common

#endif  // SRC_COMMON_METRICS_H_
