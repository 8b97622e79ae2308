// cryptonets_1chip: encrypted CryptoNets inference as a compiled graph on a
// one-chip farm, closed loop with one caller.
//
// One unit is a 4-image batch through apps::CryptoNet{8,4,2} at
// BfvParams::paper_small (n = 2^12), compiled once with graph::compile and
// run by GraphExecutor; one service stays warm across units.  Items are
// images.  Every chip op is a squaring, so this is where the PE datapath
// (wall) and the link I/O (simulated) dominate.  Outputs are checked
// bit-exactly against graph::evaluate_reference.
#include <memory>
#include <vector>

#include "apps/cryptonets.hpp"
#include "bench.hpp"
#include "graph/executor.hpp"
#include "poly/sampler.hpp"
#include "service/eval_service.hpp"

namespace perfbench {
namespace {

using namespace cofhee;

constexpr std::size_t kImages = 4;
constexpr std::size_t kInputSets = 2;  // units alternate between input sets
const apps::NetworkConfig kNet{8, 4, 2, /*weight_seed=*/42};

bfv::Ciphertext encrypt_scalar(bfv::Bfv& scheme, const bfv::PublicKey& pk,
                               std::int64_t v) {
  bfv::Plaintext p;
  p.coeffs.assign(scheme.context().n(), 0);
  const auto t = static_cast<std::int64_t>(scheme.context().t());
  p.coeffs[0] = static_cast<nt::u64>(((v % t) + t) % t);
  return scheme.encrypt(pk, p);
}

/// Everything set-up builds: keys, inputs, the compiled graph and a warm
/// one-chip service.
struct State {
  explicit State(std::uint64_t seed, Metrics& m)
      : scheme(bfv::BfvParams::paper_small(), seed), net(scheme.context(), kNet) {
    sk = scheme.keygen_secret();
    pk = scheme.keygen_public(sk);
    auto t0 = Clock::now();
    rk = scheme.keygen_relin(sk, 16);
    m.set("bfv.keygen_relin_ms", since(t0) * 1e3, "ms");

    poly::Rng rng(seed ^ 0xC0FFEEull);
    std::vector<graph::NodeId> ins;
    for (std::size_t img = 0; img < kImages; ++img) {
      ins.clear();
      for (std::size_t i = 0; i < kNet.inputs; ++i) ins.push_back(g.input());
      (void)net.build_graph(g, ins);
    }
    t0 = Clock::now();
    for (std::size_t s = 0; s < kInputSets; ++s) {
      inputs.emplace_back();
      for (std::size_t i = 0; i < kImages * kNet.inputs; ++i)
        inputs[s].push_back(
            encrypt_scalar(scheme, pk, static_cast<std::int64_t>(rng.uniform_below(5)) - 2));
    }
    m.set("bfv.encrypt_ms",
          since(t0) * 1e3 / static_cast<double>(kInputSets * kImages * kNet.inputs), "ms");
    t0 = Clock::now();
    cg = graph::compile(g);
    m.set("graph.compile_ms", since(t0) * 1e3, "ms");

    farm = std::make_unique<service::ChipFarm>(1);
    service::ServiceOptions opts;
    opts.relin_keys = &rk;
    svc = std::make_unique<service::EvalService>(scheme, *farm, opts);
    exec = std::make_unique<graph::GraphExecutor>(scheme, *svc);
  }

  bfv::Bfv scheme;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::RelinKeys rk;
  apps::CryptoNet net;
  graph::Graph g;
  graph::CompiledGraph cg;
  std::vector<std::vector<bfv::Ciphertext>> inputs;
  std::vector<std::vector<bfv::Ciphertext>> refs{kInputSets};  // lazily filled
  std::unique_ptr<service::ChipFarm> farm;
  std::unique_ptr<service::EvalService> svc;
  std::unique_ptr<graph::GraphExecutor> exec;
};

}  // namespace

Result run_cryptonets_1chip(const Args& args, Spans& spans) {
  Result res;
  Metrics& m = res.metrics;

  auto [st, setup] = build_thrice(
      [&](Metrics& sm) { return std::make_unique<State>(args.seed, sm); }, m);

  std::uint64_t bad = 0;
  std::vector<ServiceDelta> deltas;
  std::vector<graph::GraphRunStats> gstats;
  std::vector<double> stats_ms;
  // One unit; returns its timed wall seconds, checks outside the timing.
  const auto unit = [&](std::uint64_t u) {
    const auto& in = st->inputs[u % kInputSets];
    ServiceDelta d;
    d.a = st->svc->stats();
    graph::GraphRunStats gs;
    std::vector<bfv::Ciphertext> outs;
    const Stopwatch sw;
    {
      Spans::Scope root(spans, "unit", u);
      Spans::Scope run(spans, "graph.run", u, root.id());
      outs = st->exec->run(st->cg, in, {}, &gs);
    }
    const Elapsed e = sw.read();
    const auto ts = Clock::now();
    {
      Spans::Scope s(spans, "service.stats", u);
      d.b = st->svc->stats();
    }
    stats_ms.push_back(since(ts) * 1e3);
    {
      Spans::Scope chk(spans, "bench.check", u);
      auto& ref = st->refs[u % kInputSets];
      if (ref.empty()) ref = graph::evaluate_reference(st->scheme, st->g, in, &st->rk);
      // Each image owns kNet.outputs consecutive logits.
      for (std::size_t img = 0; img < kImages; ++img) {
        bool ok = true;
        for (std::size_t o = 0; o < kNet.outputs; ++o) {
          const std::size_t i = img * kNet.outputs + o;
          ok = ok && i < outs.size() && same_ct(outs[i], ref[i]);
        }
        bad += ok ? 0 : 1;
      }
    }
    deltas.push_back(d);
    gstats.push_back(gs);
    return e;
  };

  // Warm-up unit (untimed): twiddle ROM, relin-key uploads, first-use
  // allocations.  Its wall time is part of set-up.
  const auto tw = Clock::now();
  (void)unit(0);
  m.set("setup_s", setup + since(tw), "s");
  deltas.clear();
  gstats.clear();
  stats_ms.clear();

  const LoopTimes lt = closed_loop(args, spans, [&](std::uint64_t u) { return unit(u + 1); });
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const auto units = lt.all();
  double total = 0, cpu = 0;
  for (const auto& e : units) {
    total += e.wall;
    cpu += e.cpu;
  }
  res.attempted = units.size() * kImages + kImages;  // the warm-up is checked too
  res.failed = bad;

  const double items = static_cast<double>(units.size() * kImages);
  m.set("items_per_s", items / total, "1/s");
  m.set("cpu_ms_per_item", cpu * 1e3 / items, "ms");
  std::vector<double> lat, sim, crit, graph_s;
  std::uint64_t cycles = 0;
  double busy = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    lat.push_back(units[i].wall * 1e3);
    sim.push_back(deltas[i].span() / kImages);
    crit.push_back(sim_round(gstats[i].critical_path_seconds));
    graph_s.push_back(units[i].wall);
    cycles += deltas[i].chip_cycles();
    busy += deltas[i].busy_wall();
  }
  m.set("latency_p50_ms", quantile(lat, 0.50), "ms");
  m.set("latency_p95_ms", quantile(lat, 0.95), "ms");
  m.set("latency_p99_ms", quantile(lat, 0.99), "ms");
  m.set("latency_samples", static_cast<double>(lat.size()), "count");
  m.set("sim_s_per_item", median(sim), "sim_s");

  m.set("graph.run_s", median(graph_s), "s");
  m.set("graph.rounds", static_cast<double>(gstats.front().rounds), "count");
  m.set("graph.chip_requests", static_cast<double>(gstats.front().chip_requests), "count");
  m.set("graph.squares", static_cast<double>(gstats.front().squares), "count");
  m.set("graph.critical_path_sim_s", median(crit), "sim_s");
  report_service(deltas, kImages, m);
  m.set("service.stats_ms", median(stats_ms), "ms");
  m.set("service.chip_busy_frac", busy / total, "frac");
  m.set("chip.host_ns_per_cycle", total / static_cast<double>(cycles) * 1e9, "ns/cycle");
  if (args.trace) {
    m.set("obs.trace_overhead_frac", lt.trace_overhead(), "frac");
    bool ok = true;
    time_host_phases(st->scheme, st->rk, st->inputs[0][0], st->inputs[0][1], m, ok);
    if (!ok) ++res.failed;
  }
  return res;
}

}  // namespace perfbench
