// Metrics registry: named counters, gauges, and log-bucketed latency
// histograms for the match path.
//
// The paper's evaluation (§6) argues from *measurements* — per-step
// profiling of the native APPEL engine and access-path counters for the SQL
// plans. This registry is the production-shaped version of that discipline:
// instruments are registered once (under a mutex), after which every
// Increment/Record is a relaxed atomic operation (a counter's on the calling
// thread's own stripe), so the hot match path stays lock-free — the same
// tally discipline as sqldb's AtomicExecStats.
// Snapshots render as Prometheus-style exposition text and as JSON, with
// p50/p90/p99 computed from the histogram buckets.

#ifndef P3PDB_OBS_METRICS_H_
#define P3PDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_ordinal.h"

namespace p3pdb::obs {

/// Coerces a name into the Prometheus metric-name alphabet
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): invalid characters become `_`, and a leading
/// digit gets a `_` prefix. Applied by the registry at registration, so an
/// exposition page never contains an unscrapable line.
std::string SanitizeMetricName(std::string_view name);

/// Monotonic counter. Lock-free; relaxed ordering (a tally, not a
/// synchronization point). Striped: Increment writes the calling thread's
/// stripe (common/thread_ordinal.h), so threads counting the same event
/// never share a cache line; value() sums the stripes.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    stripes_[ThreadStripe()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kThreadStripes> stripes_;
};

/// Last-write-wins gauge (e.g. installed policy count).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Power-of-two bucket count for histograms. Bucket 0 covers [0, 1];
/// bucket i covers (2^(i-1), 2^i]; the last bucket additionally absorbs
/// everything larger (rendered as +Inf). With 40 buckets the second-to-last
/// boundary is 2^38 — far beyond any latency in microseconds this system
/// records.
inline constexpr size_t kHistogramBuckets = 40;

/// Upper (inclusive) boundary of bucket `i`: 1, 2, 4, 8, ...
uint64_t HistogramBucketUpperBound(size_t i);

/// Bucket index a value lands in.
size_t HistogramBucketIndex(uint64_t value);

/// Point-in-time copy of a histogram; all percentile math happens here, on
/// plain integers, so it is deterministic and unit-testable.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};  // per-bucket counts

  /// Nearest-rank percentile over the bucketed distribution, `p` in
  /// [0, 100]. Returns the upper boundary of the bucket containing the
  /// rank (log-bucketing trades exactness for lock-freedom; boundaries are
  /// the conservative answer, as with Prometheus `le` buckets). 0 when
  /// empty.
  double Percentile(double p) const;

  double Average() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Log-bucketed histogram of non-negative integer samples (the match path
/// records microseconds). Record() is lock-free.
class Histogram {
 public:
  void Record(uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Zeroes every cell (relaxed stores). Not atomic as a whole: a
  /// concurrent Record may survive partially; acceptable for the
  /// test/reset paths that use it.
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
};

/// Ordered label set of an info metric (`name{k="v",...} 1`).
using InfoLabels = std::vector<std::pair<std::string, std::string>>;

/// Everything a registry holds, frozen. Maps are keyed by instrument name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, InfoLabels> infos;
};

/// Pull-style collector (Prometheus's collector idiom): adds counters and
/// gauges read straight from their source to a snapshot being taken, so a
/// subsystem with its own tallies exports them without mirror instruments.
/// Names must already be valid metric names (no sanitizing is applied).
using Collector = std::function<void(MetricsSnapshot* snapshot)>;

/// Owns named instruments. Get* registers on first use (mutex-guarded) and
/// returns a stable pointer; callers cache the pointer and touch it
/// lock-free afterwards. Instrument names follow Prometheus conventions
/// (snake_case, unit suffix, `_total` for counters).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Registers (or replaces) an info metric — the `name{label="value"} 1`
  /// idiom for constant build/deployment facts (e.g. p3p_build_info with
  /// git sha and build type). Label values are escaped at render time.
  void SetInfo(std::string_view name, InfoLabels labels);

  /// Registers a collector. Every Snapshot() — and so every RenderText()
  /// and RenderJson() — runs each collector once, after the registered
  /// instruments are copied (a collected name overwrites an instrument of
  /// the same name). Collectors run outside the registry mutex and may be
  /// called from several scraping threads at once.
  void AddCollector(Collector collector);

  MetricsSnapshot Snapshot() const;

  /// Prometheus-style exposition text: `# TYPE` comments, cumulative
  /// `_bucket{le="..."}` lines, `_sum`/`_count`, and quantile lines for
  /// p50/p90/p99.
  std::string RenderText() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, avg, p50, p90, p99}}}.
  std::string RenderJson() const;

 private:
  mutable std::mutex mu_;  // guards the maps; instruments themselves are
                           // lock-free and pointer-stable once registered
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, InfoLabels, std::less<>> infos_;
  std::vector<Collector> collectors_;
};

}  // namespace p3pdb::obs

#endif  // P3PDB_OBS_METRICS_H_
