#!/usr/bin/env python3
"""Benchmark of the adaptive SAMR runtime, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all          # every workload, both runs, all metrics
    python3 perfbench/run.py --self-test    # the benchmark's own tests
    python3 perfbench/run.py --record-digests   # re-record expected_digests.json

The first call configures and builds the library and the runner from
source into $CARGO_TARGET_DIR (default .bench_build).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import bench_stats  # noqa: E402

WORKLOADS = ("paper-static", "sensing-faults", "scale-event")
# Workloads whose inputs do not depend on the seed; their digests are
# recorded once under "*".
SEED_FREE = ("paper-static", "scale-event")
DIGEST_FILE = os.path.join(HERE, "expected_digests.json")
RECORDED_SEEDS = range(0, 25)
RUNNER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the runner and self-test; returns the dir."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_runner",
           "perfbench_selftest"]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return out


def run_runner(out, workload, seed, seconds, trace):
    cmd = [os.path.join(out, "perfbench_runner"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(int(trace)), "--export-dir", os.path.join(out, "export")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("runner exited with code %d" % proc.returncode)
    return bench_stats.parse_records(proc.stdout.splitlines())


def expected_for(workload, seed):
    if not os.path.isfile(DIGEST_FILE):
        return None
    with open(DIGEST_FILE) as f:
        table = json.load(f).get(workload, {})
    return table.get("*" if workload in SEED_FREE else str(seed))


def measure(out, workload, seed, seconds, trace):
    """One benchmark run; prints the report and returns the result object."""
    setup, end, jobs = run_runner(out, workload, seed, seconds, trace)
    expected = expected_for(workload, seed)
    errors = bench_stats.check_outputs(jobs, expected)

    print("== %s  seed %d  %s run  SSAMR_THREADS=%d  %d sweep(s) of %d runs"
          % (workload, seed, "traced" if trace else "end-to-end",
             setup["threads"], end["sweeps"], setup["jobs"]))
    if expected is None:
        print("   digests for this seed are not recorded; checked that every "
              "sweep repeats the first")
    for j in jobs:
        if not j["ok"]:
            print("   FAILED sweep %d job %d (%s): %s"
                  % (j["sweep"], j["job"], j["label"], j["reason"]))
    for e in errors:
        print("   CHECK " + e)

    attempted = len(jobs)
    failed = sum(not j["ok"] for j in jobs)
    if trace:
        values = bench_stats.per_layer(jobs)
        units = bench_stats.PER_LAYER
    else:
        values, info = bench_stats.end_to_end(setup, end, jobs)
        units = {k: u for k, (u, _) in bench_stats.END_TO_END.items()}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k in units:
        print("   %-26s %16.6g  %s" % (k, values[k], units[k]))
    if not trace:
        gain = info["het_gain_pct"]
        print("   %-26s %16.6g  %s" % ("failed_frac", info["failed_frac"],
                                       bench_stats.REPORTED["failed_frac"]))
        print("   %-26s %16s  %s" % ("het_gain_pct",
                                     "n/a" if gain is None else "%.6g" % gain,
                                     bench_stats.REPORTED["het_gain_pct"]))
        print("   cycle_tail_ms is p%g of %d samples (%d in the first sweep)"
              % (info["tail_percentile"], info["cycle_samples"],
                 info["first_sweep_samples"]))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_digests(out):
    """Re-record expected_digests.json from one traced sweep per workload
    and seed (the traced run also checks its replays)."""
    table = {}
    for workload in WORKLOADS:
        seeds = ["*"] if workload in SEED_FREE else [str(s) for s in RECORDED_SEEDS]
        table[workload] = {}
        for s in seeds:
            _, _, jobs = run_runner(out, workload, 0 if s == "*" else int(s), 0,
                                    True)
            gain = bench_stats.het_gain_pct(jobs)
            table[workload][s] = {
                "digests": [j["digest"] if j["ok"] else None for j in jobs],
                "het_gain_pct": None if gain is None else repr(gain),
            }
            print("recorded %s seed %s" % (workload, s), file=sys.stderr)
    with open(DIGEST_FILE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def self_test(out):
    rc = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    rc |= subprocess.run([sys.executable, "-B", "-m", "unittest", "discover", "-s",
                          os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 1 if rc else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload end to end and traced")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    out = build()
    if args.self_test:
        sys.exit(self_test(out))
    if args.record_digests:
        record_digests(out)
        return
    if args.all:
        results = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                results["%s/%s" % (w, "traced" if trace else "e2e")] = measure(
                    out, w, args.seed, args.seconds, trace)
        print(json.dumps(results))
        sys.exit(0 if all(r["correct"] for r in results.values()) else 1)
    if args.workload is None:
        ap.error("--workload is required (or --all / --self-test)")
    result = measure(out, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
