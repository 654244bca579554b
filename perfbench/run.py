#!/usr/bin/env python3
"""The repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs several sessions of the workload, each
a fresh process, and folds them into one result. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics with the benchmark's spans off and
the program's telemetry in its default state (off). --trace 1 runs traced
sessions (benchmark spans and program telemetry on) and reports the
per-layer metrics, plus one untraced session for the tracing overhead.

Every rate, window and population size comes from perfbench/protocol.json;
nothing is derived from a measured capacity. A failed output check makes
the command exit nonzero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SESSION_TIMEOUT_S = 150

# Per-layer metrics the sessions do not report themselves.
POOLED_LAYER = (
    "latency.auth_p50_us",
    "latency.auth_p99_us",
    "wall.sat_auth_per_s",
    "trace.overhead_permille",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_protocol():
    with open(os.path.join(HERE, "protocol.json")) as f:
        return json.load(f)


def load_metric_spec():
    """(name, unit) lists of the end-to-end and per-layer metrics, from
    BENCHMARK.json at the repository root (their single source)."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
    return names("end_to_end"), names("per_layer")


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Every dependency is a path inside the checkout, so cargo needs no
    # registry: keep its home (and the caches it writes) in the target
    # directory too.
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def session(binary, workload, params, seed, seconds, trace):
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if trace else "0",
    ]
    for k, v in params.items():
        cmd += ["--param", f"{k}={v}"]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=SESSION_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: session timed out after {SESSION_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{workload}: session exited with {res.returncode}")
    return json.loads(lines[-1])


def checks_pass(sessions):
    bad = sorted({k for s in sessions for k, v in s.items() if k.startswith("check.") and v is not True})
    for k in bad:
        print(f"FAILED {k}", file=sys.stderr)
    return not bad


def reached(name, reaches):
    """Whether a workload must report per-layer metric `name`: its layer
    (the part before the first dot) or its full name is listed."""
    return name in reaches or name.split(".", 1)[0] in reaches


def reports_complete(sessions, per_layer, reaches):
    """Every traced session reports every per-layer metric its workload
    reaches; a renamed or dropped one would otherwise read 0."""
    missing = sorted({
        name for s in sessions for name, _ in per_layer
        if name not in POOLED_LAYER and reached(name, reaches) and name not in s
    })
    for name in missing:
        print(f"FAILED check.reported: no {name}", file=sys.stderr)
    return not missing


def percentile(sorted_values, q):
    """Nearest-rank percentile, as the sessions compute it."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), -(-len(sorted_values) * q // 100)))
    return sorted_values[int(rank) - 1]


def fingerprints_agree(sessions):
    prints = {s["fingerprint"] for s in sessions if "fingerprint" in s}
    if len(prints) > 1:
        print("FAILED check.replay: sessions of one seed disagree:", file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    protocol = load_protocol()
    wl = protocol["workloads"].get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}")
    params = wl["params"]
    end_to_end, per_layer = load_metric_spec()
    binary = build()

    n = protocol["trace_sessions_per_run"] if args.trace else protocol["sessions_per_run"]
    per_session = args.seconds / protocol["sessions_per_run"]
    sessions = [
        session(binary, args.workload, params, args.seed, per_session, args.trace == 1)
        for _ in range(n)
    ]
    correct = checks_pass(sessions) and fingerprints_agree(sessions)
    # Light-load latency, pooled over the sessions: reported, not bounded
    # (see protocol.json "latency").
    lat = sorted(x for s in sessions for x in s["latencies_us"])
    attempted = sum(int(s.get("attempted", 0)) for s in sessions)
    failed = sum(int(s.get("failed", 0)) for s in sessions)

    def pooled(runs, num, den):
        return sum(float(s[num]) for s in runs) / sum(float(s[den]) for s in runs)

    def cost_of(runs, samples):
        # The largest of the sessions' medians. On a shared host a whole
        # session can run 30-45% faster while its neighbours are idle (a
        # memory-heavy single thread gains most); the slowest session
        # stands for the usual, contended host, and a run moves only if
        # all of its sessions fall into such a quiet spell.
        return max(statistics.median(s[samples]) for s in runs)

    def setup_of(runs):
        # Each session's set-up (sim_city: the median of its builds); the
        # largest of them, as for costs.
        return max(float(s["setup_s"]) for s in runs)

    if args.trace:
        untraced = session(binary, args.workload, params, args.seed, per_session, False)
        reaches = protocol["reaches"][args.workload]
        correct = correct and checks_pass([untraced]) and reports_complete(sessions, per_layer, reaches)
        metrics = {}
        for name, unit in per_layer:
            if name not in POOLED_LAYER:
                # A metric this workload does not reach reads 0; a reached
                # one missing has failed reports_complete above.
                values = [float(s.get(name, 0.0)) for s in sessions]
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            else:
                metrics[name] = {"value": 0.0, "unit": unit}
        metrics["latency.auth_p50_us"]["value"] = percentile(lat, 50)
        metrics["latency.auth_p99_us"]["value"] = percentile(lat, 99)
        metrics["wall.sat_auth_per_s"]["value"] = pooled(sessions, "sat.served", "sat.window_s")
        # Tracing overhead: auth cost of the traced sessions over the
        # untraced one's.
        traced = cost_of(sessions, "cost.slices_us")
        plain = cost_of([untraced], "cost.slices_us")
        metrics["trace.overhead_permille"]["value"] = (traced - plain) / plain * 1000.0
    else:
        # Costs and set-up are the largest over the sessions (see cost_of);
        # memory is the median over the sessions.
        values = {
            "setup_s": setup_of(sessions),
            "peak_rss_mb": statistics.median(float(s["peak_rss_mb"]) for s in sessions),
            "auth_cost_us": cost_of(sessions, "cost.slices_us"),
            "steady_cost_ns": cost_of(sessions, "steady.slices_ns"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}

    stamp = {k: v for k, v in sessions[0].items() if k.startswith("stamp.")}
    stamp.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        sessions=n, transport="loopback UDP", profile="release",
    )
    print(f"# protocol: {json.dumps(stamp, sort_keys=True)}")
    print(
        f"# wall clock (not bounded): latency p50 {percentile(lat, 50):.0f} us, "
        f"p99 {percentile(lat, 99):.0f} us over {len(lat)} samples; "
        f"sat_auth_per_s {pooled(sessions, 'sat.served', 'sat.window_s'):.1f}; "
        f"set-up {statistics.median(float(s['setup.wall_s']) for s in sessions):.3f} s"
    )
    for s in sessions:
        print(f"# session: {json.dumps({k: v for k, v in s.items() if k != 'latencies_us'}, sort_keys=True)}")
    if attempted < 1:
        fail(f"{args.workload}: no operation was attempted")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
