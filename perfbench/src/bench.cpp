#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "chip/chip.hpp"
#include "driver/chip_bfv.hpp"

namespace perfbench {

namespace driver = cofhee::driver;

int Spans::begin(const char* name, std::uint64_t unit, int parent, std::uint32_t tid) {
  if (!on_.load(std::memory_order_relaxed)) return -1;
  const double t = std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, unit, parent, tid, t, t});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int id) {
  if (id < 0) return;
  const double t = std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& t = out[spans_[i].name];
    const double d = spans_[i].t1 - spans_[i].t0;
    t.total += d;
    t.self += std::max(0.0, d - child[i]);
  }
  return out;
}

double Spans::unattributed_frac() const {
  const auto t = totals();
  const auto it = t.find("unit");
  if (it == t.end() || it->second.total <= 0) return 0;
  return it->second.self / it->second.total;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"unit\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<int>(s.name.find('.') == std::string::npos
                                      ? s.name.size()
                                      : s.name.find('.')),
                 s.name.c_str(), s.tid, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.unit));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[i - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t ServiceDelta::chip_cycles() const {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < b.per_chip.size(); ++i)
    c += b.per_chip[i].chip_cycles - a.per_chip[i].chip_cycles;
  return c;
}

double ServiceDelta::busy_wall() const {
  double s = 0;
  for (std::size_t i = 0; i < b.per_chip.size(); ++i)
    s += b.per_chip[i].busy_wall_seconds - a.per_chip[i].busy_wall_seconds;
  return s;
}

void report_service(const std::vector<ServiceDelta>& units, double items_per_unit,
                    Metrics& m) {
  if (units.empty()) return;
  // Per-unit values, then the median: identical units give the identical
  // figure however many units the window held.
  const auto per_item = [&](auto field) {
    std::vector<double> v;
    for (const auto& d : units) v.push_back(field(d) / items_per_unit);
    return median(v);
  };
  const auto count = [&](const char* name, auto member) {
    m.set(name, per_item([&](const ServiceDelta& d) {
            return static_cast<double>(d.b.*member - d.a.*member);
          }),
          "count/item");
  };
  using S = service::ServiceStats;
  count("service.rounds", &S::rounds);
  count("service.overlapped_rounds", &S::overlapped_rounds);
  count("service.sessions", &S::sessions);
  count("service.key_uploads", &S::key_uploads);
  count("service.key_cache_hits", &S::key_cache_hits);
  count("service.sram_reuses", &S::sram_reuses);
  count("service.retries", &S::retries);
  count("service.requeues", &S::requeues);
  count("driver.batched_writes", &S::batched_writes);
  count("driver.twiddle_cache_hits", &S::twiddle_cache_hits);
  count("driver.key_bytes_saved", &S::key_bytes_saved);
  const auto sim = [&](const char* name, double S::*member) {
    m.set(name,
          per_item([&](const ServiceDelta& d) { return sim_round(d.b.*member - d.a.*member); }),
          "sim_s/item");
  };
  sim("service.sim_io_s", &S::io_seconds);
  sim("service.sim_compute_s", &S::compute_seconds);
  sim("service.sim_host_prep_s", &S::sim_host_prep_seconds);
  sim("service.sim_host_finish_s", &S::sim_host_finish_seconds);
}

bool same_ct(const bfv::Ciphertext& x, const bfv::Ciphertext& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x.c[i].towers != y.c[i].towers) return false;
  return true;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double LoopTimes::trace_overhead() const {
  const auto mean = [](const std::vector<Elapsed>& v) {
    double s = 0;
    for (const auto& e : v) s += e.wall;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double base = mean(untraced);
  return base > 0 ? mean(traced) / base - 1.0 : 0.0;
}

void time_host_phases(const bfv::Bfv& scheme, const bfv::RelinKeys& rk,
                      const bfv::Ciphertext& a, const bfv::Ciphertext& b, Metrics& m,
                      bool& ok) {
  using driver::ChipBfvEvaluator;
  const auto median_ms = [](auto&& phase) {
    std::vector<double> v;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      phase();
      v.push_back(since(t0) * 1e3);
    }
    return median(v);
  };
  driver::EvalMultOperands ops;
  m.set("driver.prepare_ms",
        median_ms([&] { ops = ChipBfvEvaluator::prepare(scheme, a, b); }), "ms");

  // assemble() consumes per-tower tensors only a chip produces: make them on
  // a private chip, untimed.
  cofhee::chip::CofheeChip soc;
  driver::HostDriver drv(soc);
  driver::ChipMulReport rep;
  std::vector<driver::TowerTensor> tensors;
  for (std::size_t t = 0; t < ops.a0.num_towers(); ++t) {
    ChipBfvEvaluator::configure_tower(drv, scheme, t, &rep);
    ChipBfvEvaluator::load_tower(drv, ops, t, &rep);
    ChipBfvEvaluator::execute_tower(drv, &rep);
    tensors.push_back(ChipBfvEvaluator::read_tower(drv, &rep));
  }
  bfv::Ciphertext prod;
  m.set("driver.assemble_ms",
        median_ms([&] { prod = ChipBfvEvaluator::assemble(scheme, tensors); }), "ms");
  ok = ok && same_ct(prod, scheme.multiply(a, b));

  driver::RelinOperands rops;
  m.set("driver.prepare_relin_ms",
        median_ms([&] { rops = ChipBfvEvaluator::prepare_relin(scheme, prod, rk); }), "ms");
  // assemble_relin() stacks the per-tower key-switch accumulations; those
  // equal the software relinearization's towers bit for bit.
  const bfv::Ciphertext relin = scheme.relinearize(prod, rk);
  std::vector<driver::RelinTowerAcc> accs(relin.c[0].num_towers());
  for (std::size_t t = 0; t < accs.size(); ++t)
    accs[t] = {relin.c[0].towers[t], relin.c[1].towers[t]};
  bfv::Ciphertext out;
  m.set("driver.assemble_relin_ms",
        median_ms([&] { out = ChipBfvEvaluator::assemble_relin(accs); }), "ms");
  ok = ok && same_ct(out, relin);
}

}  // namespace perfbench
