// chip_polyops_wide: the paper's native polynomial operations straight at
// HostDriver, and the Table V fidelity check every workload reports.
//
// One unit is a sweep of nine chip ops -- PolyMul, NTT and iNTT at
// n = 2^12 and 2^13 (Table V's 109-bit q) and at n = 2^14 with the widest
// NTT prime the model accepts -- each as configure_ring -> load_polynomial
// -> op -> read_polynomial.  Items are chip ops.  Every output is checked
// against the host mirror of the chip's NTT engine (HostDriver::ntt_engine).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"

namespace perfbench {
namespace {

using namespace cofhee;
using chip::Bank;
using driver::u128;

enum class Op { kPolyMul, kNtt, kIntt };
constexpr Op kOps[] = {Op::kPolyMul, Op::kNtt, Op::kIntt};
const char* op_name(Op op) {
  return op == Op::kPolyMul ? "polymul" : op == Op::kNtt ? "ntt" : "intt";
}

// Modulus width at n = 2^14: the widest NTT prime the model accepts
// (nt::find_ntt_prime_u128 searches at most 127 bits).
constexpr unsigned kWideBits = 127;

// Table V of the paper (silicon): cycles and average power.
struct PaperRow {
  Op op;
  std::size_t n;
  double cycles, avg_mw;
};
constexpr PaperRow kTableV[] = {
    {Op::kPolyMul, 1u << 12, 83777, 22.9}, {Op::kNtt, 1u << 12, 24841, 24.5},
    {Op::kIntt, 1u << 12, 29468, 19.9},    {Op::kPolyMul, 1u << 13, 179045, 21.2},
    {Op::kNtt, 1u << 13, 53535, 24.4},     {Op::kIntt, 1u << 13, 62770, 18.3},
};

/// Operand sets kept per ring; units rotate through them.
constexpr std::size_t kOperandSets = 2;

struct Ring {
  std::size_t n = 0;
  u128 q = 0, psi = 0;
  std::vector<std::vector<u128>> a, b;  // kOperandSets operand pairs
};

/// What one chip op measured.
struct OpRecord {
  Op op;
  std::size_t n;
  double wall = 0, configure = 0, load = 0, exec = 0, read = 0;  // wall seconds
  double link_s = 0;  // simulated link seconds (configure + loads + read)
  std::uint64_t cycles = 0;
  double avg_mw = 0;
  bool ok = true;
};

/// One chip + driver and the three rings of the sweep.
class ChipSweep {
 public:
  explicit ChipSweep(std::uint64_t seed) : drv_(soc_) {
    poly::Rng rng(seed);
    for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 13,
                                std::size_t{1} << 14}) {
      Ring r;
      r.n = n;
      r.q = nt::find_ntt_prime_u128(n == (1u << 14) ? kWideBits : 109, n);
      r.psi = nt::primitive_2nth_root(r.q, n);
      for (std::size_t s = 0; s < kOperandSets; ++s) {
        r.a.push_back(poly::sample_uniform128(rng, n, r.q));
        r.b.push_back(poly::sample_uniform128(rng, n, r.q));
      }
      rings_.push_back(std::move(r));
    }
  }

  static constexpr std::size_t kOpsPerSweep = 9;

  /// Run sweep `u` (operand set u mod kOperandSets); spans under `parent`.
  std::vector<OpRecord> sweep(std::uint64_t u, Spans& spans, int parent) {
    std::vector<OpRecord> out;
    const std::size_t set = u % kOperandSets;
    for (const auto& r : rings_)
      for (const Op op : kOps) out.push_back(run_op(r, op, set, u, spans, parent));
    return out;
  }

  /// Check a sweep's outputs against the host mirror (outside any timing).
  void check(std::vector<OpRecord>& recs, std::uint64_t u) {
    for (std::size_t i = 0; i < recs.size(); ++i)
      recs[i].ok = outputs_[i] == expected(recs[i].op, ring(recs[i].n), u % kOperandSets);
  }

  [[nodiscard]] const driver::HostDriver& driver() const { return drv_; }

 private:
  const Ring& ring(std::size_t n) const {
    return *std::find_if(rings_.begin(), rings_.end(),
                         [n](const Ring& r) { return r.n == n; });
  }

  OpRecord run_op(const Ring& r, Op op, std::size_t set, std::uint64_t u, Spans& spans,
                  int parent) {
    OpRecord rec{op, r.n};
    const auto t0 = Clock::now();
    {
      Spans::Scope s(spans, "driver.configure_ring", u, parent);
      rec.link_s += drv_.configure_ring(r.q, r.n, r.psi, /*timed=*/true);
    }
    const auto t1 = Clock::now();
    // NTT/iNTT run DP0 -> DP1 and PolyMul SP0 x SP1 -> SP2, as Table V does.
    const Bank in = op == Op::kPolyMul ? Bank::kSp0 : Bank::kDp0;
    const Bank out = op == Op::kPolyMul ? Bank::kSp2 : Bank::kDp1;
    {
      Spans::Scope s(spans, "driver.load", u, parent);
      rec.link_s += drv_.load_polynomial(in, 0, r.a[set]);
      if (op == Op::kPolyMul) rec.link_s += drv_.load_polynomial(Bank::kSp1, 0, r.b[set]);
    }
    const auto t2 = Clock::now();
    soc_.reset_metrics();
    {
      const std::string name = std::string("chip.") + op_name(op);
      Spans::Scope s(spans, name.c_str(), u, parent);
      if (op == Op::kPolyMul)
        (void)drv_.poly_mul();
      else if (op == Op::kNtt)
        (void)drv_.ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
      else
        (void)drv_.intt({Bank::kDp0, 0}, {Bank::kDp1, 0});
    }
    const auto t3 = Clock::now();
    rec.cycles = soc_.cycles();
    rec.avg_mw = soc_.power_trace().report().avg_mw;
    double read_s = 0;
    {
      Spans::Scope s(spans, "driver.read", u, parent);
      outputs_.resize(std::max(outputs_.size(), index_of(r.n, op) + 1));
      outputs_[index_of(r.n, op)] = drv_.read_polynomial(out, 0, r.n, &read_s);
    }
    const auto t4 = Clock::now();
    rec.link_s += read_s;
    const auto sec = [](Clock::time_point x, Clock::time_point y) {
      return std::chrono::duration<double>(y - x).count();
    };
    rec.configure = sec(t0, t1);
    rec.load = sec(t1, t2);
    rec.exec = sec(t2, t3);
    rec.read = sec(t3, t4);
    rec.wall = sec(t0, t4);
    return rec;
  }

  static std::size_t index_of(std::size_t n, Op op) {
    const std::size_t ring = n == (1u << 12) ? 0 : n == (1u << 13) ? 1 : 2;
    return ring * 3 + static_cast<std::size_t>(op);
  }

  /// Host-mirror reference for (op, ring, operand set), computed once.
  const std::vector<u128>& expected(Op op, const Ring& r, std::size_t set) {
    auto& slot = refs_[{index_of(r.n, op), set}];
    if (slot.empty()) {
      const poly::MergedNtt128 eng(nt::Barrett128(r.q), r.n, r.psi);
      if (op == Op::kPolyMul) {
        slot = eng.negacyclic_mul(r.a[set], r.b[set]);
      } else {
        slot = r.a[set];
        op == Op::kNtt ? eng.forward(slot) : eng.inverse(slot);
      }
    }
    return slot;
  }

  chip::CofheeChip soc_;
  driver::HostDriver drv_;
  std::vector<Ring> rings_;
  std::vector<std::vector<u128>> outputs_;  // last sweep, by index_of
  std::map<std::pair<std::size_t, std::size_t>, std::vector<u128>> refs_;
};

std::string key(Op op, std::size_t n) {
  return std::string(op_name(op)) + ".n" + std::to_string(n);
}

/// Table V errors, chip.* per-op numbers and driver.* phase means of a set
/// of sweeps.  Simulated figures come from the first sweep; all sweeps
/// repeat them exactly.
void report_sweeps(const std::vector<std::vector<OpRecord>>& sweeps, Metrics& m) {
  double cyc_err = 0, pow_err = 0;
  for (const auto& row : kTableV)
    for (const auto& rec : sweeps.front())
      if (rec.op == row.op && rec.n == row.n) {
        cyc_err = std::max(cyc_err, 100 * std::abs(rec.cycles - row.cycles) / row.cycles);
        pow_err = std::max(pow_err, 100 * std::abs(rec.avg_mw - row.avg_mw) / row.avg_mw);
      }
  m.set("cycle_err_pct", cyc_err, "%");
  m.set("power_err_pct", pow_err, "%");

  std::map<std::string, std::vector<double>> op_ms;
  double configure = 0, load = 0, read = 0, wall = 0, cycles = 0;
  std::size_t ops = 0;
  for (const auto& sw : sweeps)
    for (const auto& rec : sw) {
      op_ms["chip." + std::string(op_name(rec.op)) + "_ms.n" + std::to_string(rec.n)]
          .push_back(rec.exec * 1e3);
      configure += rec.configure;
      load += rec.load;
      read += rec.read;
      wall += rec.exec;
      cycles += static_cast<double>(rec.cycles);
      ++ops;
    }
  for (const auto& [name, v] : op_ms) m.set(name, median(v), "ms");
  for (const auto& rec : sweeps.front()) {
    m.set("chip.cycles." + key(rec.op, rec.n), static_cast<double>(rec.cycles), "cycles");
    m.set("chip.avg_mw." + key(rec.op, rec.n), rec.avg_mw, "mW");
  }
  const double k = static_cast<double>(ops);
  m.set("driver.configure_ring_ms", configure / k * 1e3, "ms");
  m.set("driver.load_ms", load / k * 1e3, "ms");
  m.set("driver.read_ms", read / k * 1e3, "ms");
  double link = 0;
  for (const auto& rec : sweeps.front()) link += rec.link_s;
  m.set("driver.link_sim_s_per_op", link / static_cast<double>(sweeps.front().size()),
        "sim_s");
  // Chip-op wall over the cycles it simulated (the PE/MDMC datapath cost).
  m.fill("chip.host_ns_per_cycle", wall / cycles * 1e9, "ns/cycle");
}

}  // namespace

bool chip_sweep_metrics(std::uint64_t seed, Metrics& m, Spans& spans) {
  ChipSweep cs(seed);
  std::vector<std::vector<OpRecord>> sweeps{cs.sweep(0, spans, -1)};
  cs.check(sweeps.front(), 0);
  report_sweeps(sweeps, m);
  return std::all_of(sweeps.front().begin(), sweeps.front().end(),
                     [](const OpRecord& r) { return r.ok; });
}

Result run_chip_polyops_wide(const Args& args, Spans& spans) {
  Result res;
  Metrics& m = res.metrics;

  // Set-up: prime search, twiddle roots and operand sampling.
  auto [cs, setup] =
      build_thrice([&](Metrics&) { return std::make_unique<ChipSweep>(args.seed); }, m);
  // Warm-up sweep (untimed): first ring programming, lazy allocations.
  const auto tw = Clock::now();
  (void)cs->sweep(0, spans, -1);
  const double warmup = since(tw);
  m.set("setup_s", setup + warmup, "s");

  std::vector<std::vector<OpRecord>> sweeps;
  std::uint64_t bad = 0;
  const LoopTimes lt = closed_loop(args, spans, [&](std::uint64_t u) {
    const Stopwatch sw;
    std::vector<OpRecord> recs;
    {
      Spans::Scope root(spans, "unit", u);
      recs = cs->sweep(u, spans, root.id());
    }
    const Elapsed e = sw.read();
    {
      Spans::Scope chk(spans, "bench.check", u);
      cs->check(recs, u);
    }
    for (const auto& r : recs) bad += r.ok ? 0 : 1;
    sweeps.push_back(std::move(recs));
    return e;
  });
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");

  double total = 0, cpu = 0;
  for (const auto& e : lt.all()) {
    total += e.wall;
    cpu += e.cpu;
  }
  res.attempted = sweeps.size() * ChipSweep::kOpsPerSweep;
  res.failed = bad;
  std::vector<double> op_lat;
  for (const auto& sw : sweeps)
    for (const auto& r : sw) op_lat.push_back(r.wall * 1e3);
  m.set("items_per_s", static_cast<double>(res.attempted) / total, "1/s");
  m.set("cpu_ms_per_item", cpu * 1e3 / static_cast<double>(res.attempted), "ms");
  m.set("latency_p50_ms", quantile(op_lat, 0.50), "ms");
  m.set("latency_p95_ms", quantile(op_lat, 0.95), "ms");
  m.set("latency_p99_ms", quantile(op_lat, 0.99), "ms");
  m.set("latency_samples", static_cast<double>(op_lat.size()), "count");
  double sim = 0;
  for (const auto& r : sweeps.front())
    sim += r.link_s + static_cast<double>(r.cycles) * chip::ChipConfig{}.cycle_ns() * 1e-9;
  m.set("sim_s_per_item", sim / ChipSweep::kOpsPerSweep, "sim_s");
  report_sweeps(sweeps, m);
  const auto& tc = cs->driver().transport();
  const double ops = static_cast<double>(res.attempted + ChipSweep::kOpsPerSweep);
  m.set("driver.batched_writes", static_cast<double>(tc.batched_writes) / ops, "count/item");
  m.set("driver.twiddle_cache_hits", static_cast<double>(tc.twiddle_cache_hits) / ops,
        "count/item");
  m.set("driver.key_bytes_saved", static_cast<double>(tc.key_bytes_saved) / ops,
        "count/item");
  if (args.trace) m.set("obs.trace_overhead_frac", lt.trace_overhead(), "frac");
  return res;
}

}  // namespace perfbench
