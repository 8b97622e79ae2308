// evalmult_2chip: mixed EvalMult batches on a two-chip SPI farm, closed
// loop with one caller and one outstanding batch.
//
// One unit is one submit_batch of 24 requests -- 18 kMultRelin, 3 kEvalMult
// and 3 kRelinearize in a fixed order -- over general (non-square) operands
// at BfvParams::paper_small, with default ServiceOptions.  24 requests span
// two dispatcher rounds (max_batch 16), so placement across chips, pipelined
// rounds, the relin-key cache and host base extension / rounding all run.
// Items are requests.  Outputs are checked bit-exactly against
// Bfv::multiply / Bfv::relinearize.
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "bfv/encoder.hpp"
#include "poly/sampler.hpp"
#include "service/eval_service.hpp"

namespace perfbench {
namespace {

using namespace cofhee;
using service::RequestKind;

constexpr std::size_t kRequests = 24;
constexpr std::size_t kPool = 8;      // fresh 2-element ciphertexts
constexpr std::size_t kPool3 = 2;     // 3-element ciphertexts for kRelinearize

/// Kind of request j: the same fixed mix in every unit, so every unit
/// simulates the same work whatever the seed.
RequestKind kind_of(std::size_t j) {
  switch (j % 8) {
    case 5: return RequestKind::kEvalMult;
    case 7: return RequestKind::kRelinearize;
    default: return RequestKind::kMultRelin;
  }
}

struct State {
  explicit State(std::uint64_t seed, Metrics& m)
      : scheme(bfv::BfvParams::paper_small(), seed) {
    sk = scheme.keygen_secret();
    pk = scheme.keygen_public(sk);
    auto t0 = Clock::now();
    rk = scheme.keygen_relin(sk, 16);
    m.set("bfv.keygen_relin_ms", since(t0) * 1e3, "ms");
    poly::Rng rng(seed ^ 0xE7A1ull);
    bfv::IntegerEncoder enc(scheme.context());
    t0 = Clock::now();
    for (std::size_t i = 0; i < kPool; ++i)
      pool.push_back(scheme.encrypt(
          pk, enc.encode(static_cast<std::int64_t>(rng.uniform_below(201)) - 100)));
    m.set("bfv.encrypt_ms", since(t0) * 1e3 / kPool, "ms");
    for (std::size_t i = 0; i < kPool3; ++i)
      pool3.push_back(scheme.multiply(pool[i], pool[i + 1]));
    farm = std::make_unique<service::ChipFarm>(2);
    service::ServiceOptions opts;
    opts.relin_keys = &rk;
    svc = std::make_unique<service::EvalService>(scheme, *farm, opts);
  }

  /// Operand indices of request j in unit u: a seeded walk over the pool
  /// that never pairs a ciphertext with itself.
  [[nodiscard]] std::pair<std::size_t, std::size_t> operands(std::uint64_t u,
                                                             std::size_t j) const {
    const std::size_t a = (u * 5 + j) % kPool;
    return {a, (a + 1 + (u + 3 * j) % (kPool - 1)) % kPool};
  }

  [[nodiscard]] std::vector<service::EvalRequest> batch(std::uint64_t u) const {
    std::vector<service::EvalRequest> reqs;
    for (std::size_t j = 0; j < kRequests; ++j) {
      const auto [a, b] = operands(u, j);
      const RequestKind k = kind_of(j);
      if (k == RequestKind::kRelinearize)
        reqs.push_back({pool3[a % kPool3], {}, k});
      else
        reqs.push_back({pool[a], pool[b], k});
    }
    return reqs;
  }

  /// Software reference of request j in unit u (memoized).
  const bfv::Ciphertext& expected(std::uint64_t u, std::size_t j) {
    const auto [a, b] = operands(u, j);
    const RequestKind k = kind_of(j);
    const auto key = k == RequestKind::kRelinearize
                         ? std::make_tuple(k, a % kPool3, std::size_t{0})
                         : std::make_tuple(k, a, b);
    auto it = refs.find(key);
    if (it == refs.end()) {
      bfv::Ciphertext r;
      if (k == RequestKind::kRelinearize)
        r = scheme.relinearize(pool3[a % kPool3], rk);
      else if (k == RequestKind::kEvalMult)
        r = scheme.multiply(pool[a], pool[b]);
      else
        r = scheme.relinearize(scheme.multiply(pool[a], pool[b]), rk);
      it = refs.emplace(key, std::move(r)).first;
    }
    return it->second;
  }

  bfv::Bfv scheme;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::RelinKeys rk;
  std::vector<bfv::Ciphertext> pool, pool3;
  std::map<std::tuple<RequestKind, std::size_t, std::size_t>, bfv::Ciphertext> refs;
  std::unique_ptr<service::ChipFarm> farm;
  std::unique_ptr<service::EvalService> svc;
};

}  // namespace

Result run_evalmult_2chip(const Args& args, Spans& spans) {
  Result res;
  Metrics& m = res.metrics;

  auto [st, setup] = build_thrice(
      [&](Metrics& sm) { return std::make_unique<State>(args.seed, sm); }, m);

  std::uint64_t bad = 0;
  std::vector<ServiceDelta> deltas;
  std::vector<double> submit_us, wait_ms, stats_ms;
  const auto unit = [&](std::uint64_t u) {
    auto reqs = st->batch(u);
    ServiceDelta d;
    d.a = st->svc->stats();
    std::vector<bfv::Ciphertext> outs;
    std::vector<bool> ok(kRequests, true);
    const Stopwatch sw;
    const auto t0 = Clock::now();
    {
      Spans::Scope root(spans, "unit", u);
      std::vector<std::future<bfv::Ciphertext>> futs;
      {
        Spans::Scope s(spans, "service.submit_batch", u, root.id());
        futs = st->svc->submit_batch(std::move(reqs));
      }
      submit_us.push_back(since(t0) * 1e6);
      Spans::Scope w(spans, "service.wait", u, root.id());
      for (std::size_t j = 0; j < futs.size(); ++j) {
        try {
          outs.push_back(futs[j].get());
        } catch (const std::exception&) {
          outs.emplace_back();
          ok[j] = false;
        }
        wait_ms.push_back(since(t0) * 1e3);
      }
    }
    const Elapsed e = sw.read();
    st->svc->drain();
    const auto ts = Clock::now();
    {
      Spans::Scope s(spans, "service.stats", u);
      d.b = st->svc->stats();
    }
    stats_ms.push_back(since(ts) * 1e3);
    {
      Spans::Scope chk(spans, "bench.check", u);
      for (std::size_t j = 0; j < kRequests; ++j)
        bad += ok[j] && same_ct(outs[j], st->expected(u, j)) ? 0 : 1;
    }
    deltas.push_back(d);
    return e;
  };

  // Warm-up unit (untimed): the first unit pays ring programming, key
  // uploads and first-use allocations.  Part of set-up.
  const auto tw = Clock::now();
  (void)unit(0);
  m.set("setup_s", setup + since(tw), "s");
  deltas.clear();
  submit_us.clear();
  wait_ms.clear();
  stats_ms.clear();

  const LoopTimes lt = closed_loop(args, spans, [&](std::uint64_t u) { return unit(u + 1); });
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const auto units = lt.all();
  double total = 0, cpu = 0;
  for (const auto& e : units) {
    total += e.wall;
    cpu += e.cpu;
  }
  res.attempted = (units.size() + 1) * kRequests;
  res.failed = bad;

  const double items = static_cast<double>(units.size() * kRequests);
  m.set("items_per_s", items / total, "1/s");
  m.set("cpu_ms_per_item", cpu * 1e3 / items, "ms");
  std::vector<double> lat, sim;
  std::uint64_t cycles = 0;
  double busy = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    lat.push_back(units[i].wall * 1e3);
    sim.push_back(deltas[i].span() / kRequests);
    cycles += deltas[i].chip_cycles();
    busy += deltas[i].busy_wall();
  }
  m.set("latency_p50_ms", quantile(lat, 0.50), "ms");
  m.set("latency_p95_ms", quantile(lat, 0.95), "ms");
  m.set("latency_p99_ms", quantile(lat, 0.99), "ms");
  m.set("latency_samples", static_cast<double>(lat.size()), "count");
  m.set("sim_s_per_item", median(sim), "sim_s");

  report_service(deltas, kRequests, m);
  m.set("service.submit_us", median(submit_us), "us");
  m.set("service.wait_ms", median(wait_ms), "ms");
  m.set("service.stats_ms", median(stats_ms), "ms");
  m.set("service.chip_busy_frac", busy / (2 * total), "frac");
  m.set("chip.host_ns_per_cycle", total / static_cast<double>(cycles) * 1e9, "ns/cycle");
  if (args.trace) {
    m.set("obs.trace_overhead_frac", lt.trace_overhead(), "frac");
    bool ok = true;
    time_host_phases(st->scheme, st->rk, st->pool[0], st->pool[1], m, ok);
    if (!ok) ++res.failed;
  }
  return res;
}

}  // namespace perfbench
