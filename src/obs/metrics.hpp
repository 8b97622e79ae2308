// Metrics registry with Prometheus-style text exposition.
//
// Three instrument kinds -- Counter (monotonic), Gauge (free-moving) and
// Histogram (fixed ascending buckets + implicit +Inf) -- grouped into
// families by metric name, each family carrying a help string and any
// number of label-set instances.  render() emits the text format scrapers
// and dashboards expect (the histogram family here is illustrative; the
// service exports its latency books as quantile gauges, see
// obs/service_export.hpp):
//
//   # HELP cofhee_service_requests_submitted_total Requests accepted.
//   # TYPE cofhee_service_requests_submitted_total counter
//   cofhee_service_requests_submitted_total 4096
//   # HELP cofhee_op_seconds Per-op wall time.
//   # TYPE cofhee_op_seconds histogram
//   cofhee_op_seconds_bucket{op="ntt",le="0.001"} 17
//   ...
//   cofhee_op_seconds_bucket{op="ntt",le="+Inf"} 420
//   cofhee_op_seconds_sum{op="ntt"} 1.25
//   cofhee_op_seconds_count{op="ntt"} 420
//
// Lookup (counter()/gauge()/histogram()) takes the registry mutex once and
// returns a stable reference; the hot path -- add/set/observe on the
// returned instrument -- is lock-free (atomics; doubles via CAS).
// obs/service_export.hpp maps a ServiceStats snapshot onto a registry, so
// dashboards need no service internals.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cofhee::obs {

namespace detail {

/// CAS add on an atomic double (fetch_add for floating types is not
/// portable before C++20 library support is universal).
inline void atomic_add(std::atomic<double>& a, double d) noexcept {
  double old = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(old, old + d, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic counter.  set() exists for snapshot exposition (mirroring an
/// externally maintained monotonic total, e.g. a ServiceStats counter).
class Counter {
 public:
  /// Add `d` (>= 0 by convention; not enforced).
  void add(double d) noexcept { detail::atomic_add(v_, d); }
  /// Add 1.
  void inc() noexcept { add(1.0); }
  /// Overwrite with an externally tracked monotonic total.
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  /// Current value.
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
};

/// Free-moving instantaneous value.
class Gauge {
 public:
  /// Set the current value.
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  /// Adjust the current value by `d`.
  void add(double d) noexcept { detail::atomic_add(v_, d); }
  /// Current value.
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket histogram: `bounds` are strictly ascending inclusive upper
/// bounds; an implicit +Inf bucket catches the rest.  observe() is
/// lock-free and wait-free apart from the CAS on the running sum.
class Histogram {
 public:
  /// Throws std::invalid_argument unless `bounds` is non-empty and strictly
  /// ascending.
  explicit Histogram(std::vector<double> bounds);

  /// Record one sample.
  void observe(double v) noexcept;

  /// The configured upper bounds (excluding the implicit +Inf).
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Samples in bucket `i` alone (i == bounds().size() is the +Inf bucket);
  /// Prometheus exposition cumulates these.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Total samples observed.
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of all observed samples.
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Label set of one instrument instance, e.g. {{"chip", "2"}}.  Order is
/// preserved in the exposition.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Families of named instruments with Prometheus text exposition (see file
/// comment).  Thread-safe; returned instrument references stay valid for
/// the registry's lifetime.
class MetricsRegistry {
 public:
  /// Empty registry.
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The counter `name{labels}`, created (with `help`) on first use.
  /// Throws std::logic_error when `name` already names a different kind.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  /// The gauge `name{labels}`, created on first use.
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  /// The histogram `name{labels}`, created with `bounds` on first use
  /// (later calls ignore `bounds`; the family's first bounds win).
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {});

  /// Emit every family in the Prometheus text format, sorted by name.
  void render(std::ostream& os) const;
  /// render() into a string.
  [[nodiscard]] std::string render_text() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Instance {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<std::unique_ptr<Instance>> instances;
  };

  Instance& instance(const std::string& name, const std::string& help, Kind kind,
                     Labels labels);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace cofhee::obs
