"""Aggregation of perfbench_runner records into the benchmark's metrics.

The runner prints one JSON record per line: a ``setup`` record, one ``job``
record per AdaptiveRuntime run (per sweep), and an ``end`` record.  This
module turns them into the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) and applies the digest checks.
"""

import json
import math
import statistics

# name -> (unit, better); must match BENCHMARK.json (checked by the self-test).
END_TO_END = {
    "iters_per_s": ("1/s", "higher"),
    "cycle_p50_ms": ("ms", "lower"),
    "cycle_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed next to the end-to-end metrics but not gated: failed_frac is the
# result line's failed / attempted, and het_gain_pct is pinned exactly by
# the recorded digests.
REPORTED = {
    "failed_frac": "fraction",
    "het_gain_pct": "%",
}

PER_LAYER = {
    "amr.calls": "count",
    "amr.self_s": "s",
    "amr.ms_per_call": "ms",
    "amr.boxes_out": "count",
    "amr.particles_self_s": "s",
    "amr.work_self_s": "s",
    "amr.repeat_frac": "fraction",
    "partition.calls": "count",
    "partition.self_s": "s",
    "partition.us_per_box": "us",
    "partition.splits": "count",
    "monitor.sweeps": "count",
    "monitor.self_s": "s",
    "monitor.us_per_probe": "us",
    "monitor.timeouts": "count",
    "monitor.failures": "count",
    "monitor.quarantines": "count",
    "sim.advance_calls": "count",
    "sim.advance_self_s": "s",
    "sim.migrate_calls": "count",
    "sim.migrate_self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "hdda.inserts": "count",
    "hdda.self_s": "s",
    "export.self_s": "s",
    "export.bytes": "bytes",
    "runtime.run_s": "s",
    "runtime.unattributed_frac": "fraction",
}

# Percentiles cycle_tail_ms may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(samples, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least ten of n samples beyond it.

    Falls back to the median when n < 20."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return 50.0


def parse_records(lines):
    setup, end, jobs = None, None, []
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        kind = rec.get("kind")
        if kind == "setup":
            setup = rec
        elif kind == "end":
            end = rec
        elif kind == "job":
            jobs.append(rec)
    if setup is None or end is None:
        raise ValueError("runner output lacks its setup or end record")
    if len(jobs) != setup["jobs"] * end["sweeps"]:
        raise ValueError("runner output has %d job records, expected %d"
                         % (len(jobs), setup["jobs"] * end["sweeps"]))
    return setup, end, jobs


def het_gain_pct(jobs):
    """Mean over complete pairs of (T_default - T_system) / T_default, in %.

    Uses the first sweep; later sweeps repeat it bit-for-bit."""
    pairs = {}
    for j in jobs:
        if j["sweep"] == 0 and j["ok"]:
            pairs.setdefault(j["pair"], {})[j["system"]] = j["total_time"]
    gains = [(p[False] - p[True]) / p[False] * 100.0
             for _, p in sorted(pairs.items()) if True in p and False in p]
    return statistics.fmean(gains) if gains else None


def check_outputs(jobs, expected):
    """Apply the digest checks; marks failing jobs and returns error lines.

    `expected` is the workload's entry of expected_digests.json for this
    seed (or None when the seed was not recorded).  Every job must also
    repeat its first sweep's digest in later sweeps."""
    errors = []
    first = {}
    for j in jobs:
        if not j["ok"]:
            continue
        ref = first.setdefault(j["job"], j["digest"])
        if j["digest"] != ref:
            j["ok"] = False
            errors.append("job %d (%s) sweep %d: digest %s differs from "
                          "sweep 0's %s" % (j["job"], j["label"], j["sweep"],
                                            j["digest"], ref))
    if expected is not None:
        want = expected["digests"]
        for j in jobs:
            if not j["ok"] or j["job"] >= len(want) or want[j["job"]] is None:
                continue
            if j["digest"] != want[j["job"]]:
                j["ok"] = False
                errors.append("job %d (%s): digest %s, recorded %s"
                              % (j["job"], j["label"], j["digest"],
                                 want[j["job"]]))
        gain = het_gain_pct(jobs)
        if expected.get("het_gain_pct") is not None and (
                gain is None or repr(gain) != expected["het_gain_pct"]):
            errors.append("het_gain_pct %r, recorded %s"
                          % (gain, expected["het_gain_pct"]))
    for j in jobs:
        for e in j.get("errors", []):
            if j.get("reason") == "output check failed":
                errors.append("job %d (%s): %s" % (j["job"], j["label"], e))
    return errors


def end_to_end(setup, end, jobs):
    ok = [j for j in jobs if j["ok"]]
    wall = sum(j["wall_s"] for j in jobs)
    cycles = [c for j in ok for c in j["cycles_ms"]]
    first_sweep = sum(len(j["cycles_ms"]) for j in ok if j["sweep"] == 0)
    if not cycles or wall <= 0:
        raise ValueError("no completed run produced regrid cycles")
    p_tail = tail_percentile(first_sweep)
    metrics = {
        "iters_per_s": sum(j["iterations"] for j in ok) / wall,
        "cycle_p50_ms": percentile(cycles, 50.0),
        "cycle_tail_ms": percentile(cycles, p_tail),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }
    info = {
        "failed_frac": (len(jobs) - len(ok)) / len(jobs),
        "het_gain_pct": het_gain_pct(jobs),
        "tail_percentile": p_tail,
        "cycle_samples": len(cycles),
        "first_sweep_samples": first_sweep,
    }
    return metrics, info


def per_layer(jobs):
    ok = [j for j in jobs if j["ok"]]

    def total(key):
        return sum(j[key] for j in ok)

    seen, repeats, trace_calls = set(), 0, 0
    for j in ok:
        if not j["trace_key"]:
            continue
        for epoch in range(j["amr_calls"]):
            key = (j["trace_key"], epoch)
            repeats += key in seen
            seen.add(key)
            trace_calls += 1

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sim_self = (total("sim_advance_self_s") + total("sim_migrate_self_s")
                + total("sim_other_self_s"))
    attributed = (total("amr_self_s") + total("amr_particles_self_s")
                  + total("amr_work_self_s")
                  + total("partition_self_s") + total("monitor_self_s")
                  + sim_self + total("hdda_self_s"))
    run_s = total("run_s")
    return {
        "amr.calls": total("amr_calls"),
        "amr.self_s": total("amr_self_s"),
        "amr.ms_per_call": ratio(total("amr_self_s"), total("amr_calls"), 1e3),
        "amr.boxes_out": total("amr_boxes_out"),
        "amr.particles_self_s": total("amr_particles_self_s"),
        "amr.work_self_s": total("amr_work_self_s"),
        "amr.repeat_frac": ratio(repeats, trace_calls),
        "partition.calls": total("partition_calls"),
        "partition.self_s": total("partition_self_s"),
        "partition.us_per_box": ratio(total("partition_self_s"),
                                      total("partition_boxes_in"), 1e6),
        "partition.splits": total("partition_splits"),
        "monitor.sweeps": total("monitor_sweeps"),
        "monitor.self_s": total("monitor_self_s"),
        "monitor.us_per_probe": ratio(total("monitor_self_s"),
                                      total("monitor_probes"), 1e6),
        "monitor.timeouts": total("timeouts"),
        "monitor.failures": total("failures"),
        "monitor.quarantines": total("quarantines"),
        "sim.advance_calls": total("sim_advance_calls"),
        "sim.advance_self_s": total("sim_advance_self_s"),
        "sim.migrate_calls": total("sim_migrate_calls"),
        "sim.migrate_self_s": total("sim_migrate_self_s"),
        "sim.events": total("sim_events"),
        "sim.events_per_s": ratio(total("sim_events"), sim_self),
        "hdda.inserts": total("hdda_inserts"),
        "hdda.self_s": total("hdda_self_s"),
        "export.self_s": total("export_self_s"),
        "export.bytes": total("export_bytes"),
        "runtime.run_s": run_s,
        "runtime.unattributed_frac": 1.0 - ratio(attributed, run_s),
    }
