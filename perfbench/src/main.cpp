// perfbench_core: runs one workload of the CoFHEE two-clock benchmark and
// prints one JSON line with every metric it measured (name, value, unit),
// the run record and the correctness tally.  perfbench/run.py builds this
// binary, runs it and turns its line into the benchmark's result.
//
//   perfbench_core --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <chrome-trace.json>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "nt/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_core --workload <cryptonets_1chip|evalmult_2chip|"
               "frontdoor_mixed|chip_polyops_wide> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--trace-out") args.trace_out = v;
    else return usage();
  }
  if (args.seconds <= 0) return usage();

  Result (*run)(const Args&, Spans&) = nullptr;
  if (args.workload == "cryptonets_1chip") run = run_cryptonets_1chip;
  else if (args.workload == "evalmult_2chip") run = run_evalmult_2chip;
  else if (args.workload == "frontdoor_mixed") run = run_frontdoor_mixed;
  else if (args.workload == "chip_polyops_wide") run = run_chip_polyops_wide;
  else return usage();

  Spans spans;
  Result res;
  std::vector<std::string> probed;
  try {
    res = run(args, spans);
    Metrics& m = res.metrics;
    // Table V fidelity and the per-op chip numbers, untimed, for the
    // workloads that do not sweep the chip ops themselves.
    if (run != run_chip_polyops_wide && !chip_sweep_metrics(args.seed, m, spans))
      ++res.failed;
    if (args.trace) {
      m.set("bench.unattributed_frac", spans.unattributed_frac(), "frac");
      bool ok = true;
      probed = probe_missing_layers(args.seed, m, ok);
      if (!ok) ++res.failed;
      if (!args.trace_out.empty() && !spans.write_chrome_json(args.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_core: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  for (const auto& [name, metric] : res.metrics.all()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    print_json_string(metric.unit);
    std::printf("}");
  }
  std::printf("}, \"probed\": [");
  for (std::size_t i = 0; i < probed.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    print_json_string(probed[i]);
  }
  std::printf("], \"span_self_s\": {");
  first = true;
  for (const auto& [name, t] : spans.totals()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": %.9g", t.self);
  }
  std::printf("}, \"record\": {\"compiler\": ");
  print_json_string(__VERSION__);
  std::printf(", \"build_type\": ");
  print_json_string(PERFBENCH_BUILD_TYPE);
  std::printf(", \"cofhee_tracing\": %d, \"simd_lane\": ", COFHEE_TRACING ? 1 : 0);
  print_json_string(cofhee::nt::simd::isa_name(cofhee::nt::simd::active_isa()));
  std::printf("}}\n");
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
