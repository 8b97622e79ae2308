// The service's books: LatencyHistogram percentile bounds, farm-wide chip
// totals derived from the per-chip books, and live stats() polling.
//
// A histogram percentile must lie within one ladder step above the exact
// order statistic, with count and max exact, and samples outside the ladder
// must clamp to the exact maximum.  Farm totals must be the chip-index-
// ordered sums of per_chip, so they repeat bit for bit under pooled
// dispatch.  A live poller hammering EvalService::stats() during traffic,
// with every tracked tenant and the overflow bucket populated, closes the
// loop: monitoring never blocks or torments the dispatcher.
#include "service/service_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "bfv/encoder.hpp"
#include "service/eval_service.hpp"

namespace cofhee::service {
namespace {

/// The exact order statistic LatencyHistogram::snapshot() estimates: the
/// sample at rank floor(q * (n - 1)) of the sorted samples.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1))];
}

TEST(LatencyHistogram, EmptyHistogramSnapshotsToZeros) {
  LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.max_seconds, 0.0);
}

TEST(LatencyHistogram, QuantilesLieWithinOneLadderStepOfTheExactOrderStatistic) {
  // The ladder itself: 10 us up to past 100 s, ratio 2^(1/4) per step.
  const auto& b = LatencyHistogram::bounds();
  const double ratio_slack = LatencyHistogram::kRatio * (1 + 1e-12);
  EXPECT_EQ(b.front(), 1e-5);
  EXPECT_GE(b.back(), 100.0);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_GT(b[i], b[i - 1]);
    EXPECT_LE(b[i] / b[i - 1], ratio_slack);
  }
  // Seeded samples log-uniform across the whole ladder; the small sizes are
  // where p50/p95/p99 collapse onto the same rank.
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_real_distribution<double> log10_lat(-5.0, 2.0);
  for (std::size_t size : {1u, 2u, 3u, 7u, 100u, 10000u}) {
    SCOPED_TRACE(size);
    LatencyHistogram h;
    std::vector<double> fed;
    for (std::size_t i = 0; i < size; ++i) {
      const double v = std::pow(10.0, log10_lat(rng));
      fed.push_back(v);
      h.record(v);
    }
    const auto got = h.snapshot();
    EXPECT_EQ(got.count, size);
    EXPECT_EQ(got.max_seconds, *std::max_element(fed.begin(), fed.end()));
    const std::pair<double, double> qs[] = {
        {0.50, got.p50}, {0.95, got.p95}, {0.99, got.p99}};
    for (const auto& [q, est] : qs) {
      const double want = exact_quantile(fed, q);
      EXPECT_GE(est, want) << "q=" << q;
      EXPECT_LE(est, want * ratio_slack) << "q=" << q;
    }
  }
}

TEST(LatencyHistogram, SamplesOutsideTheLadderClampToTheLadderEndsAndTheMax) {
  const auto& b = LatencyHistogram::bounds();
  {
    // Everything below the first bound: the underflow bucket's bound is
    // clamped to the exact maximum.
    LatencyHistogram h;
    for (double v : {1e-7, 2e-6, 5e-6}) h.record(v);
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.p50, 5e-6);
    EXPECT_EQ(s.p99, 5e-6);
    EXPECT_EQ(s.max_seconds, 5e-6);
  }
  {
    // Everything above the last bound: the overflow bucket reports the
    // exact maximum.
    LatencyHistogram h;
    for (double v : {200.0, 500.0, 1000.0}) h.record(v);
    const auto s = h.snapshot();
    EXPECT_EQ(s.p50, 1000.0);
    EXPECT_EQ(s.p95, 1000.0);
    EXPECT_EQ(s.p99, 1000.0);
  }
  {
    // Half under, half over: p50 lands in the underflow bucket (its bound,
    // the first ladder step), p95/p99 in the overflow bucket (the max).
    LatencyHistogram h;
    for (int i = 0; i < 50; ++i) h.record(1e-6);
    for (int i = 0; i < 50; ++i) h.record(1e3);
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.p50, b.front());
    EXPECT_EQ(s.p95, 1e3);
    EXPECT_EQ(s.p99, 1e3);
  }
  {
    // Bounds are inclusive: a sample exactly on a bound reports itself.
    LatencyHistogram h;
    h.record(b[10]);
    h.record(b[40]);
    const auto s = h.snapshot();
    EXPECT_EQ(s.p50, b[10]);
    EXPECT_EQ(s.p99, b[10]);
    EXPECT_EQ(s.max_seconds, b[40]);
  }
}

/// One 4-chip pooled-dispatch run of a fixed MultRelin batch; returns the
/// drained stats.
ServiceStats run_pooled_farm(const bfv::Bfv& scheme, const bfv::RelinKeys& rk,
                             const std::vector<EvalRequest>& reqs) {
  ChipFarm farm(4);
  ServiceOptions opts;
  opts.pooled_dispatch = true;
  opts.relin_keys = &rk;
  opts.max_batch = 3;
  EvalService svc(scheme, farm, opts);
  auto futs = svc.submit_batch(reqs);
  for (auto& f : futs) (void)f.get();
  svc.drain();
  return svc.stats();
}

TEST(ServiceStatsBooks, FarmTotalsAreChipOrderedSumsAndRepeatBitForBit) {
  // Under pooled dispatch the chips finish their sessions in any order.  A
  // farm total accumulated in completion order differs in its last bits
  // from run to run; the chip-index-ordered sum over per_chip does not.
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/5};
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  const auto rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc{scheme.context()};
  std::vector<EvalRequest> reqs;
  for (std::int64_t x : {3, -5, 7, 11, -2, 9, 1, -8, 4, 6, -3, 2}) {
    EvalRequest r{scheme.encrypt(pk, enc.encode(x)), scheme.encrypt(pk, enc.encode(x)),
                  RequestKind::kMultRelin};
    r.square = (x % 2) == 0;  // exercise the SRAM-reuse counter too
    reqs.push_back(std::move(r));
  }

  const ServiceStats a = run_pooled_farm(scheme, rk, reqs);
  const ServiceStats b = run_pooled_farm(scheme, rk, reqs);
  ASSERT_EQ(a.completed, reqs.size());
  ASSERT_EQ(a.per_chip.size(), 4u);
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  for (const ServiceStats* st : {&a, &b}) {
    double io = 0, compute = 0;
    for (const ChipStats& c : st->per_chip) {
      io += c.io_seconds;
      compute += c.compute_seconds;
    }
    EXPECT_EQ(st->io_seconds, io);
    EXPECT_EQ(st->compute_seconds, compute);
    for (const auto& row : kChipCounters) {
      if (row.farm == nullptr) continue;
      std::uint64_t sum = 0;
      for (const ChipStats& c : st->per_chip) sum += c.*row.chip;
      EXPECT_EQ(st->*row.farm, sum) << row.name;
    }
  }
  EXPECT_GT(a.sessions, 0u);
  EXPECT_GT(a.ks_products, 0u);
  EXPECT_GT(a.io_seconds, 0.0);
}

TEST(ServiceStatsPoll, ConcurrentScrapesNeverDisturbTraffic) {
  // A poller thread scrapes stats() as fast as it can while a request batch
  // flows through a 2-chip farm under the fairness scheduler.  Before the
  // poller starts, all max_tracked_tenants tenants and the overflow bucket
  // hold latency samples, so every scrape snapshots the largest book the
  // service keeps.  Results must stay bit-exact and every scrape internally
  // consistent (completed <= submitted).
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(32), /*seed=*/23};
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  bfv::IntegerEncoder enc{scheme.context()};

  ChipFarm farm(2);
  ServiceOptions opts;
  opts.sched = SchedPolicy::kPriorityFair;
  opts.max_batch = 4;
  EvalService svc(scheme, farm, opts);

  // Tenants 0..255 fill the tracking table; tenant 256 folds into overflow.
  const std::size_t tenants = opts.max_tracked_tenants + 1;
  std::vector<std::future<bfv::Ciphertext>> warm;
  for (std::size_t t = 0; t < tenants; ++t) {
    EvalRequest r{scheme.encrypt(pk, enc.encode(3)), scheme.encrypt(pk, enc.encode(2)),
                  RequestKind::kEvalMult};
    SubmitOptions so;
    so.tenant = t;
    warm.push_back(svc.submit(std::move(r), so));
  }
  for (auto& fu : warm) EXPECT_EQ(enc.decode(scheme.decrypt(sk, fu.get())), 6);
  svc.drain();
  {
    const auto st = svc.stats();
    ASSERT_EQ(st.per_tenant.size(), opts.max_tracked_tenants + 1);
    EXPECT_EQ(st.per_tenant.back().tenant, kOverflowTenantId);
    for (const auto& tn : st.per_tenant) EXPECT_GT(tn.latency.count, 0u);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto st = svc.stats();
      EXPECT_LE(st.completed + st.failed, st.submitted);
      for (const auto& cls : st.per_class)
        EXPECT_LE(cls.completed + cls.failed, cls.submitted);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::int64_t> xs = {3, -5, 7, 11, -2, 9, 1, -8};
  std::vector<std::future<bfv::Ciphertext>> futs;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EvalRequest r{scheme.encrypt(pk, enc.encode(xs[i])),
                  scheme.encrypt(pk, enc.encode(2)), RequestKind::kEvalMult};
    SubmitOptions so;
    so.tenant = i % 3;
    so.priority = (i % 2) ? Priority::kHigh : Priority::kNormal;
    futs.push_back(svc.submit(std::move(r), so));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto got = futs[i].get();
    EXPECT_EQ(enc.decode(scheme.decrypt(sk, got)), xs[i] * 2);
  }
  stop.store(true);
  poller.join();
  EXPECT_GT(scrapes.load(), 0u);
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, tenants + xs.size());
  EXPECT_EQ(st.per_tenant.size(), opts.max_tracked_tenants + 1);
}

}  // namespace
}  // namespace cofhee::service
