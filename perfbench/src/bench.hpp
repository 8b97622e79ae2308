// Shared plumbing of the CoFHEE two-clock benchmark: command line, metric
// sink, benchmark-side spans, wall clocks and small statistics helpers.
//
// Every layer number is measured from outside the library: the benchmark
// times its own calls into each module's public functions and reads the
// counters the program already exposes.  Nothing here reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bfv/bfv.hpp"
#include "service/service_stats.hpp"

namespace perfbench {

namespace bfv = cofhee::bfv;
namespace service = cofhee::service;

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Parsed command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
};

/// One reported number with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics; names follow BENCHMARK.json.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    m_[name] = {value, unit};
  }
  /// Set `name` only if no earlier measurement filled it.
  void fill(const std::string& name, double value, const std::string& unit) {
    if (!has(name)) set(name, value, unit);
  }
  [[nodiscard]] bool has(const std::string& name) const { return m_.count(name) != 0; }
  [[nodiscard]] const std::map<std::string, Metric>& all() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

/// Benchmark-side span recorder: name, start, end, parent and one id per
/// unit of work.  Spans stay in memory and are written as Chrome
/// trace-event JSON at the end.  Recording is off unless enabled, so the
/// untraced measurement pays one branch per span.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t unit = 0;
    int parent = -1;
    std::uint32_t tid = 0;
    double t0 = 0, t1 = 0;  ///< seconds since the recorder's epoch
  };

  /// RAII span; records nothing when the recorder is off.
  class Scope {
   public:
    Scope(Spans& s, const char* name, std::uint64_t unit, int parent = -1,
          std::uint32_t tid = 0)
        : s_(s), id_(s.begin(name, unit, parent, tid)) {}
    ~Scope() { s_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Spans& s_;
    int id_;
  };

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }

  int begin(const char* name, std::uint64_t unit, int parent, std::uint32_t tid);
  void end(int id);

  /// Per span name: summed duration and summed self time (duration minus
  /// the time its children cover), both in seconds.
  struct Totals {
    double total = 0, self = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Share of all root-span time that no child (layer) span covers.
  [[nodiscard]] double unattributed_frac() const;
  /// Write Chrome trace-event JSON; returns false on I/O failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<bool> on_{false};
  Clock::time_point epoch_ = Clock::now();
};

/// Outcome of one workload run.
struct Result {
  Metrics metrics;  ///< end-to-end and any per-layer numbers it measured
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + refused + wrong output
};

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// Median of `v`.
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Build a workload's state three times, keeping the last: `make(m)`
/// returns the state and records per-layer set-up figures (bfv.*, graph.*)
/// into m.  Returns the state and the median build wall seconds, and
/// records the median of each set-up figure into `out`.
template <class Make>
auto build_thrice(Make&& make, Metrics& out) {
  std::vector<Metrics> layers(3);
  std::vector<double> walls;
  decltype(make(layers[0])) st;
  for (auto& lm : layers) {
    const auto t0 = Clock::now();
    st.reset();
    st = make(lm);
    walls.push_back(since(t0));
  }
  for (const auto& [name, metric] : layers[0].all()) {
    std::vector<double> v;
    for (const auto& lm : layers) v.push_back(lm.all().at(name).value);
    out.set(name, median(v), metric.unit);
  }
  return std::make_pair(std::move(st), median(walls));
}

/// A per-unit simulated-seconds figure rounded to 1 ns.  The program keeps
/// simulated time in cumulative doubles, so the delta over one unit carries
/// rounding noise (~1e-13 s) that depends on how much came before; the model
/// itself resolves nothing finer than a nanosecond.
inline double sim_round(double seconds) { return std::round(seconds * 1e9) / 1e9; }

/// Counter deltas of an EvalService between two stats() snapshots.
struct ServiceDelta {
  service::ServiceStats a, b;
  [[nodiscard]] double span() const {
    return sim_round(b.pipeline_span_seconds - a.pipeline_span_seconds);
  }
  [[nodiscard]] std::uint64_t chip_cycles() const;
  [[nodiscard]] double busy_wall() const;
};

/// Record the service.* and driver transport counters of `units` (one delta
/// per unit of work) as per-item medians.
void report_service(const std::vector<ServiceDelta>& units, double items_per_unit,
                    Metrics& m);

/// Bit-exact ciphertext equality.
bool same_ct(const bfv::Ciphertext& x, const bfv::Ciphertext& y);

/// Time the static ChipBfvEvaluator host phases (prepare, assemble,
/// prepare_relin, assemble_relin) on the operands `a`, `b` and record
/// driver.*_ms.  Their inputs that only a chip produces are computed on a
/// private chip, untimed.  Clears `ok` when a phase output is not
/// bit-exact against the software scheme.
void time_host_phases(const bfv::Bfv& scheme, const bfv::RelinKeys& rk,
                      const bfv::Ciphertext& a, const bfv::Ciphertext& b, Metrics& m,
                      bool& ok);

/// CPU seconds this process has used, all threads.
double process_cpu_seconds();

/// Wall and process-CPU seconds of one timed part.
struct Elapsed {
  double wall = 0, cpu = 0;
};

/// Starts the wall clock and the process CPU clock.
class Stopwatch {
 public:
  Stopwatch() : t0_(Clock::now()), c0_(process_cpu_seconds()) {}
  [[nodiscard]] Elapsed read() const { return {since(t0_), process_cpu_seconds() - c0_}; }

 private:
  Clock::time_point t0_;
  double c0_;
};

/// Timed part of each unit of a closed loop, per phase.
struct LoopTimes {
  std::vector<Elapsed> untraced, traced;
  [[nodiscard]] std::vector<Elapsed> all() const {
    std::vector<Elapsed> v = untraced;
    v.insert(v.end(), traced.begin(), traced.end());
    return v;
  }
  /// Traced vs untraced mean unit wall, minus one.
  [[nodiscard]] double trace_overhead() const;
};

/// Closed loop with one caller: `unit(u)` runs unit u and returns the
/// Elapsed of its timed part.  Untraced runs fill `seconds` of unit wall
/// time; traced runs spend half of it untraced and half with spans
/// recording, so the two halves give the tracing overhead.
template <class Unit>
LoopTimes closed_loop(const Args& args, Spans& spans, Unit&& unit) {
  LoopTimes t;
  std::uint64_t u = 0;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  for (auto* phase : {&t.untraced, &t.traced}) {
    if (phase == &t.traced && !args.trace) break;
    spans.enable(phase == &t.traced);
    double sum = 0;
    do {
      phase->push_back(unit(u++));
      sum += phase->back().wall;
    } while (sum < window);
  }
  spans.enable(false);
  return t;
}

/// Table V comparison of a chip-op sweep (see chip_ops.cpp): fills
/// cycle_err_pct / power_err_pct and the chip.* / driver.* per-op layer
/// numbers.  Returns false when a chip output mismatched the host mirror.
bool chip_sweep_metrics(std::uint64_t seed, Metrics& m, Spans& spans);

// Workloads (one translation unit each).
Result run_cryptonets_1chip(const Args& args, Spans& spans);
Result run_evalmult_2chip(const Args& args, Spans& spans);
Result run_frontdoor_mixed(const Args& args, Spans& spans);
Result run_chip_polyops_wide(const Args& args, Spans& spans);

/// Traced runs only: measure the per-layer numbers the workload itself did
/// not produce with a small fixed n = 64 probe of those layers.  Returns
/// the names it filled.  Returns false in `ok` on a wrong probe output.
std::vector<std::string> probe_missing_layers(std::uint64_t seed, Metrics& m, bool& ok);

}  // namespace perfbench
