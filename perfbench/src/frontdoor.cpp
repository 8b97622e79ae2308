// frontdoor_mixed: open-loop traffic through the TCP front door, plus the
// small n = 64 layer probe traced runs use for layers their workload does
// not exercise.
//
// Requests arrive on a seeded Poisson schedule at one fixed offered rate.
// Three EvalClient connections send batches of 1-4 n = 64 requests
// (BfvParams::test_tiny, kMultRelin / kEvalMult) for 48 skewed tenants in
// three priority classes, under tenancy limits generous enough that
// admission runs but never refuses.  A fourth connection scrapes
// GET /metrics on its own fixed schedule.  Latency runs from each request's
// due time to its reply.  Outputs are checked by decrypting to the expected
// product.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "bfv/encoder.hpp"
#include "graph/executor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "poly/sampler.hpp"
#include "service/eval_service.hpp"

namespace perfbench {
namespace {

using namespace cofhee;
using service::Priority;
using service::RequestKind;

constexpr std::size_t kPool = 32;
constexpr std::size_t kConnections = 3;
constexpr std::size_t kTenants = 48;
constexpr double kBatchesPerSec = 40;   // offered load: ~100 requests/s
constexpr double kScrapeEverySec = 0.1;

/// The n = 64 scheme, a two-chip farm, its service and the TCP server.
struct FrontDoor {
  explicit FrontDoor(std::uint64_t seed, Metrics& m)
      : scheme(bfv::BfvParams::test_tiny(64), seed), enc(scheme.context()) {
    sk = scheme.keygen_secret();
    pk = scheme.keygen_public(sk);
    auto t0 = Clock::now();
    rk = scheme.keygen_relin(sk, 16);
    m.set("bfv.keygen_relin_ms", since(t0) * 1e3, "ms");
    poly::Rng rng(seed ^ 0xF00Dull);
    t0 = Clock::now();
    for (std::size_t i = 0; i < kPool; ++i) {
      values.push_back(static_cast<std::int64_t>(rng.uniform_below(201)) - 100);
      pool.push_back(scheme.encrypt(pk, enc.encode(values.back())));
    }
    m.set("bfv.encrypt_ms", since(t0) * 1e3 / kPool, "ms");
    farm = std::make_unique<service::ChipFarm>(2);
    service::ServiceOptions opts;
    opts.relin_keys = &rk;
    // Generous limits: admission is exercised but never refuses.
    opts.tenancy.default_limits = {/*rate_per_sec=*/1e6, /*burst=*/1e6,
                                   /*max_pending=*/1u << 20};
    svc = std::make_unique<service::EvalService>(scheme, *farm, opts);
    server = std::make_unique<net::EvalServer>(*svc);
  }

  /// Open `n` client connections and say hello on each.
  void connect(std::size_t n) {
    for (std::size_t c = 0; c < n; ++c) {
      clients.push_back(std::make_unique<net::EvalClient>("127.0.0.1", server->port()));
      clients.back()->hello();
    }
  }

  /// Whether `ct` decrypts to the product of pool entries a and b.
  [[nodiscard]] bool correct(const bfv::Ciphertext& ct, std::size_t a,
                             std::size_t b) const {
    return enc.decode(scheme.decrypt(sk, ct)) == values[a] * values[b];
  }

  bfv::Bfv scheme;
  bfv::IntegerEncoder enc;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::RelinKeys rk;
  std::vector<std::int64_t> values;
  std::vector<bfv::Ciphertext> pool;
  std::unique_ptr<service::ChipFarm> farm;
  std::unique_ptr<service::EvalService> svc;
  std::unique_ptr<net::EvalServer> server;
  std::vector<std::unique_ptr<net::EvalClient>> clients;  // closed before the server
};

/// One scheduled batch of the open loop.
struct Batch {
  double due = 0;  // seconds after the window starts
  service::SubmitOptions so;
  std::vector<std::pair<std::size_t, std::size_t>> operands;
  std::vector<service::EvalRequest> reqs;
  // Filled by the sender.
  double sent = 0, done = 0;
  bool rejected = false;
  std::vector<net::ResultItem> results;
};

/// Seeded Poisson schedule over `seconds`.
std::vector<Batch> make_schedule(const FrontDoor& fd, std::uint64_t seed, double seconds) {
  poly::Rng rng(seed ^ 0x5C4EDull);
  const auto uniform = [&] {
    return (static_cast<double>(rng.next_u64() >> 11) + 0.5) * 0x1.0p-53;
  };
  // Zipf-like tenant skew: weight 1/(k+1).
  std::vector<double> cdf;
  double acc = 0;
  for (std::size_t k = 0; k < kTenants; ++k) cdf.push_back(acc += 1.0 / static_cast<double>(k + 1));
  std::vector<Batch> out;
  for (double t = -std::log(uniform()) / kBatchesPerSec; t < seconds;
       t += -std::log(uniform()) / kBatchesPerSec) {
    Batch b;
    b.due = t;
    const double x = uniform() * acc;
    std::size_t tenant = 0;
    while (cdf[tenant] < x) ++tenant;
    b.so = {static_cast<Priority>(tenant % 3), tenant + 1,
            static_cast<std::uint32_t>(1 + tenant % 2)};
    const std::size_t size = 1 + rng.uniform_below(4);
    for (std::size_t j = 0; j < size; ++j) {
      const std::size_t a = rng.uniform_below(kPool), c = rng.uniform_below(kPool);
      const RequestKind k =
          rng.uniform_below(4) == 0 ? RequestKind::kEvalMult : RequestKind::kMultRelin;
      b.operands.emplace_back(a, c);
      b.reqs.push_back({fd.pool[a], fd.pool[c], k});
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// Timed HTTP scrapes and direct stats() reads beside the traffic.
struct Scrapes {
  std::vector<double> http_ms, stats_ms, bytes;
  std::uint64_t failed = 0;
};

/// What the front door adds on identical work: `reqs` runs in-process
/// (submit_batch + wait) and then through `cli`; returns the round-trip
/// minus the in-process time, ms.
double wire_overhead_ms(FrontDoor& fd, net::EvalClient& cli,
                        const std::vector<service::EvalRequest>& reqs) {
  auto t0 = Clock::now();
  for (auto& f : fd.svc->submit_batch(reqs)) (void)f.get();
  const double local = since(t0);
  t0 = Clock::now();
  (void)cli.submit_batch(reqs);
  return (since(t0) - local) * 1e3;
}

/// The wire codecs timed on real frames: one sample per batch and
/// direction, plus the wire bytes per request of both frames.
struct CodecTimes {
  std::vector<double> enc_s, dec_s, enc_r, dec_r;  // microseconds
  double bytes = 0, requests = 0;

  void time(const service::SubmitOptions& so, const std::vector<service::EvalRequest>& reqs,
            const std::vector<net::ResultItem>& results) {
    const auto us = [](Clock::time_point t0) { return since(t0) * 1e6; };
    auto t0 = Clock::now();
    const auto sp = net::encode_submit({so, reqs});
    enc_s.push_back(us(t0));
    t0 = Clock::now();
    (void)net::decode_submit(sp);
    dec_s.push_back(us(t0));
    t0 = Clock::now();
    const auto rp = net::encode_result_batch(results);
    enc_r.push_back(us(t0));
    t0 = Clock::now();
    (void)net::decode_result_batch(rp);
    dec_r.push_back(us(t0));
    bytes += static_cast<double>(2 * net::kHeaderSize + sp.size() + rp.size());
    requests += static_cast<double>(reqs.size());
  }

  void report(Metrics& m) const {
    m.fill("net.encode_submit_us", median(enc_s), "us");
    m.fill("net.decode_submit_us", median(dec_s), "us");
    m.fill("net.encode_result_us", median(enc_r), "us");
    m.fill("net.decode_result_us", median(dec_r), "us");
    m.fill("net.bytes_per_req", bytes / requests, "bytes");
  }
};

}  // namespace

Result run_frontdoor_mixed(const Args& args, Spans& spans) {
  Result res;
  Metrics& m = res.metrics;

  auto [fd, setup] = build_thrice(
      [&](Metrics& sm) {
        auto f = std::make_unique<FrontDoor>(args.seed, sm);
        f->connect(kConnections);
        return f;
      },
      m);
  auto& clients = fd->clients;

  // Warm-up (untimed, checked): a few batches per connection.
  const auto tw = Clock::now();
  std::uint64_t bad = 0;
  for (std::size_t c = 0; c < kConnections; ++c)
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t a = (c * 4 + i) % kPool, b = (c * 4 + i + 7) % kPool;
      const auto r = clients[c]->submit_batch(
          {{fd->pool[a], fd->pool[b], RequestKind::kMultRelin}});
      bad += r.size() == 1 && r[0].ok && fd->correct(r[0].value, a, b) ? 0 : 1;
      ++res.attempted;
    }
  m.set("setup_s", setup + since(tw), "s");

  std::vector<Batch> sched = make_schedule(*fd, args.seed, args.seconds);

  const net::NetServerStats net0 = fd->server->stats();
  ServiceDelta d;
  d.a = fd->svc->stats();

  // The window: one sender thread per connection plus the scraper.
  const Stopwatch sw;
  const auto start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto rel = [&] { return since(start); };
  std::vector<std::vector<double>> late(kConnections);
  std::atomic<std::size_t> senders_left{kConnections};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c)
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < sched.size(); i += kConnections) {
        Batch& b = sched[i];
        if (rel() < b.due) {
          std::this_thread::sleep_until(at(b.due));
          late[c].push_back((rel() - b.due) * 1e3);
        }
        if (args.trace) spans.enable(rel() >= args.seconds / 2);
        b.sent = rel();
        Spans::Scope root(spans, "unit", i, -1, static_cast<std::uint32_t>(c + 1));
        try {
          Spans::Scope s(spans, "net.submit_batch", i, root.id(),
                         static_cast<std::uint32_t>(c + 1));
          b.results = clients[c]->submit_batch(b.reqs, b.so);
        } catch (const std::exception&) {
          b.rejected = true;
        }
        b.done = rel();
      }
      --senders_left;
    });
  Scrapes sc;
  threads.emplace_back([&] {
    for (std::uint64_t k = 1; senders_left.load() > 0; ++k) {
      std::this_thread::sleep_until(at(static_cast<double>(k) * kScrapeEverySec));
      auto t0 = Clock::now();
      try {
        Spans::Scope s(spans, "obs.scrape", k, -1, 0);
        sc.bytes.push_back(static_cast<double>(
            net::http_get_metrics("127.0.0.1", fd->server->port()).size()));
      } catch (const std::exception&) {
        ++sc.failed;
      }
      sc.http_ms.push_back(since(t0) * 1e3);
      t0 = Clock::now();
      {
        Spans::Scope s(spans, "service.stats", k, -1, 0);
        (void)fd->svc->stats();
      }
      sc.stats_ms.push_back(since(t0) * 1e3);
    }
  });
  for (auto& t : threads) t.join();
  const double cpu = sw.read().cpu;
  spans.enable(false);
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  double window = 0;
  for (const auto& b : sched) window = std::max(window, b.done);
  fd->svc->drain();
  d.b = fd->svc->stats();
  const net::NetServerStats net1 = fd->server->stats();

  // Correctness, outside every timed span.
  std::vector<double> lat, lat_untraced, lat_traced, rtt;
  std::size_t requests = 0;
  for (const auto& b : sched) {
    requests += b.reqs.size();
    for (std::size_t j = 0; j < b.reqs.size(); ++j) {
      const bool ok = !b.rejected && j < b.results.size() && b.results[j].ok &&
                      fd->correct(b.results[j].value, b.operands[j].first,
                                  b.operands[j].second);
      bad += ok ? 0 : 1;
      const double l = (b.done - b.due) * 1e3;
      lat.push_back(l);
      (b.sent >= args.seconds / 2 ? lat_traced : lat_untraced).push_back(l);
    }
    rtt.push_back((b.done - b.sent) * 1e3);
  }
  res.attempted += requests + sc.http_ms.size();
  res.failed = bad + sc.failed;

  m.set("items_per_s", static_cast<double>(requests) / window, "1/s");
  // Every thread of the process: clients, server, service and scraper.
  m.set("cpu_ms_per_item", cpu * 1e3 / static_cast<double>(requests), "ms");
  m.set("latency_p50_ms", quantile(lat, 0.50), "ms");
  m.set("latency_p95_ms", quantile(lat, 0.95), "ms");
  m.set("latency_p99_ms", quantile(lat, 0.99), "ms");
  m.set("latency_samples", static_cast<double>(lat.size()), "count");
  m.set("sim_s_per_item", d.span() / static_cast<double>(requests), "sim_s");

  std::vector<double> all_late;
  for (const auto& v : late) all_late.insert(all_late.end(), v.begin(), v.end());
  m.set("bench.gen_late_ms_p99", quantile(all_late, 0.99), "ms");
  m.set("net.rtt_ms_p50", median(rtt), "ms");
  const auto& normal = d.b.per_class[static_cast<std::size_t>(Priority::kNormal)].latency;
  m.set("service.wait_ms", normal.p50 * 1e3, "ms");
  const double reqs = static_cast<double>(requests);
  m.set("net.frames_rx", static_cast<double>(net1.frames_rx - net0.frames_rx) / reqs,
        "count/item");
  m.set("net.frames_tx", static_cast<double>(net1.frames_tx - net0.frames_tx) / reqs,
        "count/item");
  m.set("net.bad_frames", static_cast<double>(net1.bad_frames - net0.bad_frames), "count");
  m.set("obs.scrape_ms_p50", quantile(sc.http_ms, 0.50), "ms");
  m.set("obs.scrape_ms_p99", quantile(sc.http_ms, 0.99), "ms");
  m.set("obs.scrape_bytes", median(sc.bytes), "bytes");
  m.set("service.stats_ms", median(sc.stats_ms), "ms");

  // The codecs, timed on the workload's own frames (the first 32 batches).
  CodecTimes codecs;
  for (std::size_t i = 0; i < std::min<std::size_t>(32, sched.size()); ++i)
    if (!sched[i].rejected) codecs.time(sched[i].so, sched[i].reqs, sched[i].results);
  codecs.report(m);
  // Wire overhead: the same batches replayed unloaded, in-process vs TCP.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < std::min<std::size_t>(32, sched.size()); ++i)
    overhead.push_back(wire_overhead_ms(*fd, *clients[0], sched[i].reqs));
  m.set("net.overhead_ms_p50", median(overhead), "ms");

  report_service({d}, reqs, m);
  m.set("service.chip_busy_frac", d.busy_wall() / (2 * window), "frac");
  m.set("chip.host_ns_per_cycle", window / static_cast<double>(d.chip_cycles()) * 1e9,
        "ns/cycle");
  if (args.trace) {
    // Open loop: the offered rate fixes items/s, so compare latency.
    m.set("obs.trace_overhead_frac", median(lat_traced) / median(lat_untraced) - 1.0,
          "frac");
    bool ok = true;
    time_host_phases(fd->scheme, fd->rk, fd->pool[0], fd->pool[1], m, ok);
    if (!ok) ++res.failed;
  }
  for (auto& c : clients) c->bye();
  return res;
}

std::vector<std::string> probe_missing_layers(std::uint64_t seed, Metrics& m, bool& ok) {
  const Metrics before = m;
  Metrics setup;
  FrontDoor fd(seed, setup);
  for (const auto& [name, metric] : setup.all()) m.fill(name, metric.value, metric.unit);
  const auto req = [&](std::size_t i) {
    return service::EvalRequest{fd.pool[i % kPool], fd.pool[(i + 5) % kPool],
                                RequestKind::kMultRelin};
  };

  // service: direct submit_batch of 8 requests, a few times.
  std::vector<double> submit_us, wait_ms, stats_ms;
  std::vector<ServiceDelta> deltas;
  double busy = 0, wall = 0;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    std::vector<service::EvalRequest> reqs;
    for (std::size_t i = 0; i < 8; ++i) reqs.push_back(req(rep * 8 + i));
    ServiceDelta d;
    d.a = fd.svc->stats();
    const auto t0 = Clock::now();
    auto futs = fd.svc->submit_batch(std::move(reqs));
    submit_us.push_back(since(t0) * 1e6);
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const auto ct = futs[i].get();
      wait_ms.push_back(since(t0) * 1e3);
      ok = ok && fd.correct(ct, (rep * 8 + i) % kPool, (rep * 8 + i + 5) % kPool);
    }
    wall += since(t0);
    fd.svc->drain();
    const auto ts = Clock::now();
    d.b = fd.svc->stats();
    stats_ms.push_back(since(ts) * 1e3);
    busy += d.busy_wall();
    if (rep > 0) deltas.push_back(d);  // the first batch warms the chips
  }
  Metrics svc_m;
  report_service(deltas, 8, svc_m);
  for (const auto& [name, metric] : svc_m.all()) m.fill(name, metric.value, metric.unit);
  m.fill("service.submit_us", median(submit_us), "us");
  m.fill("service.wait_ms", median(wait_ms), "ms");
  m.fill("service.stats_ms", median(stats_ms), "ms");
  m.fill("service.chip_busy_frac", busy / (2 * wall), "frac");

  // graph: squares feeding an add, compiled and run through the service.
  graph::Graph g;
  std::vector<bfv::Ciphertext> inputs;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto x = g.input(), y = g.input();
    g.mark_output(g.add(g.square_relin(x), y));
    inputs.push_back(fd.pool[i]);
    inputs.push_back(fd.pool[i + 4]);
  }
  auto t0 = Clock::now();
  const auto cg = graph::compile(g);
  m.fill("graph.compile_ms", since(t0) * 1e3, "ms");
  graph::GraphExecutor ex(fd.scheme, *fd.svc);
  graph::GraphRunStats gs;
  t0 = Clock::now();
  const auto outs = ex.run(cg, inputs, {}, &gs);
  m.fill("graph.run_s", since(t0), "s");
  const auto ref = graph::evaluate_reference(fd.scheme, g, inputs, &fd.rk);
  for (std::size_t i = 0; i < ref.size(); ++i) ok = ok && same_ct(outs.at(i), ref[i]);
  m.fill("graph.rounds", static_cast<double>(gs.rounds), "count");
  m.fill("graph.chip_requests", static_cast<double>(gs.chip_requests), "count");
  m.fill("graph.squares", static_cast<double>(gs.squares), "count");
  m.fill("graph.critical_path_sim_s", sim_round(gs.critical_path_seconds), "sim_s");

  // net + obs: a short paced loop on one connection, then scrapes.
  fd.connect(1);
  net::EvalClient& cli = *fd.clients.front();
  const net::NetServerStats n0 = fd.server->stats();
  std::vector<double> rtt, late, overhead, scrape_ms, scrape_bytes;
  CodecTimes codecs;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < 20; ++i) {
    const auto due = start + std::chrono::milliseconds(25 * i);
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      late.push_back(std::chrono::duration<double>(Clock::now() - due).count() * 1e3);
    }
    const std::vector<service::EvalRequest> reqs{req(i), req(i + 1)};
    t0 = Clock::now();
    const auto res = cli.submit_batch(reqs);
    rtt.push_back(since(t0) * 1e3);
    for (std::size_t j = 0; j < res.size(); ++j)
      ok = ok && res[j].ok && fd.correct(res[j].value, (i + j) % kPool, (i + j + 5) % kPool);
    codecs.time({}, reqs, res);
  }
  const net::NetServerStats n1 = fd.server->stats();
  for (int i = 0; i < 10; ++i) {
    t0 = Clock::now();
    scrape_bytes.push_back(
        static_cast<double>(net::http_get_metrics("127.0.0.1", fd.server->port()).size()));
    scrape_ms.push_back(since(t0) * 1e3);
  }
  for (std::size_t i = 0; i < 20; ++i)
    overhead.push_back(wire_overhead_ms(fd, cli, {req(i), req(i + 1)}));
  cli.bye();
  m.fill("net.rtt_ms_p50", median(rtt), "ms");
  m.fill("net.overhead_ms_p50", median(overhead), "ms");
  codecs.report(m);
  m.fill("net.frames_rx", static_cast<double>(n1.frames_rx - n0.frames_rx) / codecs.requests,
         "count/item");
  m.fill("net.frames_tx", static_cast<double>(n1.frames_tx - n0.frames_tx) / codecs.requests,
         "count/item");
  m.fill("net.bad_frames", static_cast<double>(n1.bad_frames - n0.bad_frames), "count");
  m.fill("obs.scrape_ms_p50", quantile(scrape_ms, 0.50), "ms");
  m.fill("obs.scrape_ms_p99", quantile(scrape_ms, 0.99), "ms");
  m.fill("obs.scrape_bytes", median(scrape_bytes), "bytes");
  m.fill("bench.gen_late_ms_p99", quantile(late, 0.99), "ms");

  // driver host phases on the probe's operands.
  if (!m.has("driver.prepare_ms"))
    time_host_phases(fd.scheme, fd.rk, fd.pool[0], fd.pool[1], m, ok);

  std::vector<std::string> filled;
  for (const auto& [name, metric] : m.all())
    if (!before.has(name)) filled.push_back(name);
  return filled;
}

}  // namespace perfbench
