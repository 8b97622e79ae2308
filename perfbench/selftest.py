#!/usr/bin/env python3
"""Self-test of the CoFHEE two-clock benchmark.

    python3 perfbench/selftest.py [--seed 7] [--held-out-seed 1009]

Run from the root of a checkout; takes a few minutes.  It checks that:

1. determinism -- two runs of every workload with one seed but different
   window lengths print identical simulated-axis metrics (sim_s_per_item,
   cycle_err_pct, power_err_pct) and identical program counters.  The open
   loop (frontdoor_mixed) batches requests as they happen to arrive, so only
   its Table V and chip-op figures are compared;
2. the held-out seed passes every workload's correctness gate;
3. chip_polyops_wide's Table V cycles and power equal what the repository's
   bench_table05_chip_perf prints, and cycle_err_pct stays within 0.02%;
4. a traced run of every workload reports every per-layer metric of
   BENCHMARK.json (run.py refuses a run that misses one) and writes a trace.

Later changes use the held-out seed for their claims.  Exit status 0 when
every check passes.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["cryptonets_1chip", "evalmult_2chip", "frontdoor_mixed", "chip_polyops_wide"]
# Metrics that must repeat exactly for one seed.
SIM_EXACT = ("sim_s_per_item", "cycle_err_pct", "power_err_pct")
COUNTER_PREFIXES = ("chip.cycles.", "chip.avg_mw.", "graph.rounds", "graph.chip_requests",
                    "graph.squares", "graph.critical_path_sim_s", "driver.link_sim_s_per_op",
                    "driver.batched_writes", "driver.twiddle_cache_hits",
                    "driver.key_bytes_saved", "service.sim_", "service.rounds",
                    "service.overlapped_rounds", "service.sessions", "service.key_",
                    "service.sram_reuses", "service.retries", "service.requeues")
TABLE_V_ROWS = [("PolyMul", "polymul"), ("NTT", "ntt"), ("iNTT", "intt")]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def core(binary, workload, seed, seconds):
    out = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, timeout=300)
    if not out.stdout.strip():
        return None, out.returncode
    return json.loads(out.stdout.strip().splitlines()[-1]), out.returncode


def exact_keys(workload, metrics):
    keys = [k for k in metrics if k.startswith(COUNTER_PREFIXES) or k in SIM_EXACT]
    if workload == "frontdoor_mixed":
        keys = [k for k in keys if k.startswith("chip.") or k.endswith("_err_pct")]
    return sorted(keys)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--held-out-seed", type=int, default=1009)
    args = ap.parse_args()

    build_dir = run.build_dir()
    binary = run.build(build_dir)
    if not run.run_quiet(["cmake", "--build", str(build_dir), "--target", "table05_ref"],
                         build_dir / "build.log"):
        run.fail("table05_ref build failed")

    results = {}
    for w in WORKLOADS:
        a, code_a = core(binary, w, args.seed, 1)
        b, code_b = core(binary, w, args.seed, 8)
        check(a is not None and b is not None and code_a == 0 and code_b == 0
              and a["correct"] and b["correct"], f"{w}: seed {args.seed} runs correct")
        if a is None or b is None:
            continue
        ma, mb = a["metrics"], b["metrics"]
        diff = [k for k in exact_keys(w, ma) if ma[k]["value"] != mb.get(k, {}).get("value")]
        check(not diff, f"{w}: simulated metrics and counters repeat exactly"
              + (f" (differ: {', '.join(diff)})" if diff else ""))
        h, code_h = core(binary, w, args.held_out_seed, 1)
        check(h is not None and code_h == 0 and h["correct"] and h["failed"] == 0,
              f"{w}: held-out seed {args.held_out_seed} passes the correctness gate")
        results[w] = ma

    # Table V against the repository's own bench.
    ref_json = build_dir / "table05.json"
    subprocess.run([str(build_dir / "table05_ref"), "--json", str(ref_json)],
                   capture_output=True, check=True, timeout=300)
    ref = json.loads(ref_json.read_text())  # flat {"PolyMul/n4096/cycles": ...}
    w4 = results.get("chip_polyops_wide", {})
    for algo, op in TABLE_V_ROWS:
        for n in (4096, 8192):
            cyc = w4.get(f"chip.cycles.{op}.n{n}", {}).get("value")
            mw = w4.get(f"chip.avg_mw.{op}.n{n}", {}).get("value")
            check(cyc == ref.get(f"{algo}/n{n}/cycles") and mw == ref.get(f"{algo}/n{n}/avg_mw"),
                  f"chip_polyops_wide: {algo} n={n} cycles/power equal bench_table05_chip_perf")
    err = w4.get("cycle_err_pct", {}).get("value", 1e9)
    check(err <= 0.02, f"chip_polyops_wide: cycle_err_pct {err:.4f}% <= 0.02%")

    # Traced runs report every per-layer metric.
    for w in WORKLOADS:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                              "--seed", str(args.seed), "--seconds", "2", "--trace", "1"],
                             cwd=ROOT, capture_output=True, text=True, timeout=300)
        check(out.returncode == 0, f"{w}: traced run reports every per-layer metric"
              + ("" if out.returncode == 0 else f": {out.stderr.strip()[-300:]}"))

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
