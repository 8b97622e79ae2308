#!/usr/bin/env python3
"""Run one workload of the CoFHEE two-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
cofhee library and perfbench_core (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs rebuild only what changed.  perfbench_core runs the workload,
checks every output bit-exactly, and reports its metrics.  This script checks
them against BENCHMARK.json and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Above it go a human-readable summary and the run record (source revision,
host, cores, compiler, build type, COFHEE_TRACING, SIMD lane, seed); traced
runs also write a Chrome trace-event file under .bench_out/.

Exit status: 0 when every output was correct, 1 on a wrong output or a
failed run, 2 on a usage error or a checkout without the cofhee sources.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, log):
    """Run a build step, output to `log`; True on success."""
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode == 0


def build_dir():
    """$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench, in the checkout."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(bdir):
    """Configure (once) and build perfbench_core; returns its path."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    # One build at a time per build directory.
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            if not run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                              "-DCMAKE_BUILD_TYPE=Release"], log):
                fail(f"configure failed; see {log}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if not run_quiet(["cmake", "--build", str(bdir), "--target", "perfbench_core",
                          "-j", jobs], log):
            fail(f"build failed; see {log}")
    return bdir / "perfbench_core"


def source_digest():
    """sha256 over the library sources and root build file."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_core(binary, args, trace_out):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no JSON result (exit {proc.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # A stop request ends perfbench_core too (communicate() above is interrupted
    # and its finally clause kills and reaps the child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "BENCHMARK.json").exists():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail("no cofhee sources next to perfbench/ (CMakeLists.txt, src/)", 2)

    t0 = time.monotonic()
    binary = build(build_dir())
    build_s = time.monotonic() - t0

    trace_out = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"trace-{args.workload}-{args.seed}.json"
    res, code = run_core(binary, args, trace_out)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    have = res["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in have]
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    for m in wanted:
        if have[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {have[m['name']]['unit']!r}, "
                 f"BENCHMARK.json says {m['unit']!r}")

    record = dict(res.get("record", {}))
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_digest(),
        "host": platform.node(), "nproc": os.cpu_count(), "build_s": round(build_s, 3),
    })
    failed_frac = res["failed"] / max(1, res["attempted"])
    print(f"workload {args.workload}  seed {args.seed}  correct {res['correct']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  failed_frac {failed_frac:g}")
    # Printed for reading, not gated: latency and its sample size (see
    # perfbench/README.md).
    for name in ("latency_samples", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
        if name in have:
            print(f"  {name} = {have[name]['value']:g} (not gated)")
    for m in wanted:
        print(f"  {m['name']} = {have[m['name']]['value']:.6g} {m['unit']}")
    if res.get("span_self_s"):
        print("  self time by span (s): " + ", ".join(
            f"{k} {v:.4g}" for k, v in sorted(res["span_self_s"].items(), key=lambda kv: -kv[1])))
    if res.get("probed"):
        print(f"  per-layer numbers from the n = 64 layer probe: {', '.join(res['probed'])}")
    if trace_out:
        print(f"  trace: {trace_out.relative_to(ROOT)}")
    print("run record: " + json.dumps(record, sort_keys=True))

    correct = bool(res["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
