// Cross-layer latency tracing (header-only core, no library dependencies).
//
// A TraceContext is stamped onto a record at its origin — a publish call or a
// store commit — and carried *inside* the record through every stage of its
// delivery pipeline: publish → PartitionLog append → fetch → dispatch →
// consumer ack on the pubsub path, and commit → CDC → RetainedWindow ingest →
// WatchSystem dispatch → callback ack on the watch path. Each stage writes a
// wall-clock timestamp into a fixed per-stage slot; when the record completes
// (ack), obs::Collector turns consecutive stamps into per-stage latency
// histogram samples.
//
// Tracing is a measurement layer, not a semantic one: TraceContext is
// excluded from record equality, never serialized by the WAL, and invisible
// to every delivery contract. Stamps read the host's steady clock (not the
// deterministic simulator clock) because the interesting latencies — shard
// queues, worker batches, cross-thread fan-in — accrue in host time; with
// tracing disabled (the default) no clock is ever read, so deterministic
// tests and experiments are unaffected.
//
// Cost model: with tracing disabled at runtime every stamp site is one
// relaxed atomic load (origin sites) or a dead `id != 0` branch (carry
// sites). With tracing enabled, SetTraceSampleEvery(n) admits every n-th
// origin and leaves the rest untraced at the cost of one relaxed counter
// bump, so the clock reads and histogram inserts amortize to 1/n per record.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace obs {

// Stages shared by both delivery paths; a path uses the subset that exists
// for it and the Collector bridges over unstamped stages.
//
//   pubsub: kOrigin (publish accepted) → kAppend (partition-log append) →
//           kFetch (fetch handed to consumer) → kDeliver (handler invoked) →
//           kAck (message acknowledged / offset committed)
//   watch:  kOrigin (commit observed) → kFeed (CDC handed to pipeline) →
//           kAppend (retained-window ingest) → kDeliver (callback invoked) →
//           kAck (callback returned)
enum class Stage : std::uint8_t { kOrigin = 0, kFeed, kAppend, kFetch, kDeliver, kAck };
inline constexpr std::size_t kStageCount = 6;

inline const char* StageName(Stage s) {
  switch (s) {
    case Stage::kOrigin: return "origin";
    case Stage::kFeed: return "feed";
    case Stage::kAppend: return "append";
    case Stage::kFetch: return "fetch";
    case Stage::kDeliver: return "deliver";
    case Stage::kAck: return "ack";
  }
  return "?";
}

// Microseconds on the host steady clock. Monotonic per thread; cross-thread
// deltas are as good as the host's clock domain (steady_clock is global on
// the platforms this builds for).
inline std::int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace internal {
inline std::atomic<bool> g_tracing_enabled{false};
inline std::atomic<std::uint64_t> g_next_trace_id{1};
inline std::atomic<std::uint64_t> g_trace_sample_every{1};
inline std::atomic<std::uint64_t> g_trace_origin_seq{0};

// SplitMix64 finalizer. Admission uses `Mix64(seq) % every == 0` rather than
// a plain modulo: origin order is often periodic (e.g. a producer loop that
// alternates one publish and one watch ingest), and a bare `seq % every` with
// an even period aliases with that pattern — every admitted slot lands on the
// same path and the other path's histograms stay empty.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace internal

inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}
inline void SetTracingEnabled(bool on) {
  internal::g_tracing_enabled.store(on, std::memory_order_relaxed);
}
// Trace admission sampling: with SetTraceSampleEvery(n), every n-th origin
// starts an active trace and the rest stay untraced (zero downstream cost).
// n == 1 (the default) traces every record — what the unit tests' exact
// accounting relies on; production-shaped loads sample (e.g. 1/64) to keep
// the per-record cost of clock reads and histogram inserts off the hot path.
inline void SetTraceSampleEvery(std::uint64_t every) {
  internal::g_trace_sample_every.store(every == 0 ? 1 : every, std::memory_order_relaxed);
}
inline std::uint64_t TraceSampleEvery() {
  return internal::g_trace_sample_every.load(std::memory_order_relaxed);
}

struct TraceContext {
  // id values: 0 = never offered to the sampler (a record born before any
  // origin site ran); kSampledOut = offered at an origin and declined — later
  // origin sites must not re-draw, or the effective sampling rate multiplies
  // by the number of origin sites the record crosses; anything else = live.
  static constexpr std::uint64_t kSampledOut = ~std::uint64_t{0};

  std::uint64_t id = 0;
  std::array<std::int64_t, kStageCount> at{};  // Stage → micros; 0 = not reached.

  bool active() const { return id != 0 && id != kSampledOut; }
  // Whether an origin site already ran the sampler for this record.
  bool considered() const { return id != 0; }

  void Stamp(Stage stage, std::int64_t t_us) {
    if (active()) {
      at[static_cast<std::size_t>(stage)] = t_us;
    }
  }

  std::int64_t stamp(Stage stage) const { return at[static_cast<std::size_t>(stage)]; }

  // Starts a trace at its origin stage. When tracing is disabled returns an
  // untouched (id == 0) context; when the sampler declines, returns the
  // kSampledOut sentinel so downstream origin sites (which guard on
  // `!considered()`) draw the lottery at most once per record.
  static TraceContext Start() {
    TraceContext trace;
    if (TracingEnabled()) {
      const std::uint64_t every =
          internal::g_trace_sample_every.load(std::memory_order_relaxed);
      if (every > 1 &&
          internal::Mix64(internal::g_trace_origin_seq.fetch_add(
              1, std::memory_order_relaxed)) % every != 0) {
        trace.id = kSampledOut;  // Declined: one relaxed counter bump, nothing more.
        return trace;
      }
      trace.id = internal::g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
      trace.at[static_cast<std::size_t>(Stage::kOrigin)] = NowMicros();
    }
    return trace;
  }
};

}  // namespace obs

#endif  // SRC_OBS_TRACE_H_
