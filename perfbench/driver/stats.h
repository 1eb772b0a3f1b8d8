// Percentiles, bench-side spans and their self times, and process probes.
#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile of an ascending-sorted sample; p in [0, 100].
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

// The highest percentile of {99.9, 99, 90, 50} that has at least ten samples
// beyond it; 0 when even the median lacks them.
inline double HighestSupportedPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0;
}

struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double tail_percentile = 0;  // Highest percentile the sample supports.
  double tail = 0;
};

// Sorts `v` in place.
inline Summary Summarize(std::vector<double>* v) {
  Summary s;
  std::sort(v->begin(), v->end());
  s.count = v->size();
  s.p50 = PercentileSorted(*v, 50);
  s.p90 = PercentileSorted(*v, 90);
  s.p99 = PercentileSorted(*v, 99);
  s.tail_percentile = HighestSupportedPercentile(v->size());
  s.tail = PercentileSorted(*v, s.tail_percentile);
  return s;
}

// -- Spans --------------------------------------------------------------------
//
// A span brackets one call the benchmark makes into a layer. Spans live in a
// per-thread log (no locking) and are analysed after the run. A span's
// parent is the span open on the same thread when it began.

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 1u << 20) : capacity_(capacity) { spans_.reserve(1024); }

  // Returns the span's index, or -1 once the log is full (then counted).
  std::int32_t Begin(std::uint32_t name, std::int64_t now_ns) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, open_, now_ns, now_ns});
    open_ = idx;
    return idx;
  }
  void End(std::int32_t idx, std::int64_t now_ns) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns;
    open_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint64_t dropped_ = 0;
};

// RAII span; a null log records nothing (the untraced configuration).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint32_t name)
      : log_(log), idx_(log != nullptr ? log->Begin(name, NowNs()) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(idx_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

struct SelfTime {
  double total_ns = 0;  // Sum of self times.
  std::uint64_t count = 0;
  std::vector<double> durations_ns;  // Full (inclusive) durations.
};

// A span's self time is its duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
inline std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans, std::size_t names) {
  std::vector<SelfTime> out(names);
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::int32_t c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(k.start_ns, s.start_ns);
      const std::int64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    if (s.name >= names) continue;
    SelfTime& t = out[s.name];
    t.total_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
    t.durations_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
    ++t.count;
  }
  return out;
}

// -- Process probes -----------------------------------------------------------

struct ProcSample {
  std::uint64_t write_syscalls = 0;  // /proc/self/io syscw.
  std::uint64_t vol_ctx_switches = 0;
  double cpu_s = 0;
};

inline ProcSample SampleProc() {
  ProcSample s;
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscw:") s.write_syscalls = value;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.vol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  return s;
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
