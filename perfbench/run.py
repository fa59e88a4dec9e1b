#!/usr/bin/env python3
"""The repository benchmark: pinned scenario workloads, end-to-end metrics
from untraced runs, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 2022 --seconds 40 --trace 0

It builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one scenario per
child process, one at a time. With `--trace 0` it runs the workload at
least twice and until `--seconds` have passed, with set-up-only runs
after each timed run, and prints the end-to-end metrics (medians over the
runs). With `--trace 1` it makes one untraced and one traced run and
prints the per-layer metrics. Every run's report is checked; the benchmark
exits 1 without a result when a check fails. The last line of standard
output is one JSON object. See perfbench/README.md for the metric
definitions.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# name -> (built-in scenario, honest nodes)
WORKLOADS = {
    "relay_steady": ("baseline", 1000),
    "publish_flood": ("high_throughput", 200),
    "census": ("metropolis", 10000),
}
DEFAULT_SEED = 2022
# Every child run must end within this many seconds after the build, so a
# hung run cannot hold the benchmark past its 180 s limit.
RUN_BUDGET_S = 170
# Timed runs per benchmark run, at least: two reports to compare byte for
# byte, and a median of more than one sample.
MIN_RUNS = 2
# Seconds of set-up-only runs after each timed run (at least one run), so
# the set-up samples span the same stretch of time as the timed runs: a
# short set-up gets many samples, a long one few.
SETUP_TOPUP_S = 1.0
# Least share of (publish, receiver) pairs that must be delivered.
MIN_DELIVERY_RATE = 0.99


class BenchError(Exception):
    """A failed build, child run or output check."""


def build():
    """Builds both binaries; returns {name: path} and the "deadline" by
    which every child run must end."""
    if not os.path.isfile(os.path.join("crates", "scenarios", "Cargo.toml")):
        raise BenchError("run from the repository root: crates/scenarios/Cargo.toml not found")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)} exited {done.returncode}")
    out = os.path.join(env["CARGO_TARGET_DIR"], "release")
    bins = {name: os.path.join(out, name) for name in ("perfbench-timed", "perfbench-traced")}
    bins["deadline"] = time.monotonic() + RUN_BUDGET_S
    return bins


def run_child(bins, binary, scenario, nodes, seed, flags=()):
    """Runs one child to completion; returns its JSON plus `cpu_s`, the
    child's user+system CPU seconds."""
    cmd = [bins[binary], *flags, scenario, str(nodes), str(seed)]
    timeout = bins["deadline"] - time.monotonic()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(cmd)} ran past the {RUN_BUDGET_S} s budget") from e
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    try:
        data = json.loads(done.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"{' '.join(cmd)} printed no JSON: {e}") from e
    data["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return data


def check_report(name, seed, run):
    """The output checks every run must pass; raises BenchError listing
    what failed."""
    scenario, nodes = WORKLOADS[name]
    r = run["report"]
    live = r["peers_final_live"]
    # mirrors simctl's steady-state allowance: one armed heartbeat per
    # live peer (two with the pipeline's flush timer) plus headroom
    allowance = live * (2 if run["pipeline"] else 1) + live // 10 + 16
    checks = [
        (r["scenario"] == scenario, f"scenario {r['scenario']!r} != {scenario!r}"),
        (r["seed"] == seed, f"seed {r['seed']} != {seed}"),
        (r["honest"] == nodes, f"honest {r['honest']} != {nodes}"),
        # every publish then has live - 1 eligible receivers (pair counts)
        (r["peers_joined"] == 0 and r["peers_crashed"] == 0 and r["eclipse_attackers"] == 0
         and live == r["peers_initial"], "population changed during the run"),
        (r["honest_published"] > 0, "nothing was published"),
        (r["honest_publish_failures"] == 0, f"{r['honest_publish_failures']} honest publishes failed"),
        (r["spam_send_failures"] == 0, f"{r['spam_send_failures']} spam sends failed"),
        (r["delivery_rate"] >= MIN_DELIVERY_RATE, f"delivery rate {r['delivery_rate']} < {MIN_DELIVERY_RATE}"),
        (r["spammers_slashed"] == r["spammers"], f"{r['spammers_slashed']} of {r['spammers']} spammers slashed"),
        (r["members_end"] == r["members_start"] - r["spammers_slashed"], "membership changed beyond slashing"),
        (r["drain_quiescent"] or r["drain_pending_events"] <= allowance,
         f"drain hard-stopped with {r['drain_pending_events']} events queued (allowance {allowance})"),
        (r["propagation_p99_ms"] is not None, "no propagation samples"),
        (run["events"] > 0, "no events dispatched"),
    ]
    failed = [msg for ok, msg in checks if not ok]
    if failed:
        raise BenchError(f"{name} seed {seed}: " + "; ".join(failed))


def same_report(what, run, reference):
    if run["report_sha256"] != reference["report_sha256"]:
        raise BenchError(f"{what}: report {run['report_sha256']} differs from "
                         f"{reference['report_sha256']}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(num, den):
    """num ÷ den; a zero base fails the run rather than print a 0."""
    if not den:
        raise BenchError(f"ratio {num} / {den}: its base is 0")
    return metric(num / den, "ratio")


def describe(i, run):
    return (f"run {i}: wall {run['wall_s']:.3f} s setup {run['setup_s']:.3f} s "
            f"cpu {run['cpu_s']:.3f} s rss {run['vm_hwm_kb'] / 1024:.1f} MB events {run['events']} "
            f"report {run['report_sha256']}")


def timed(name, seed, seconds, bins):
    """End-to-end metrics: medians over at least MIN_RUNS runs, repeated
    until `seconds` have passed, each followed by set-up-only runs."""
    scenario, nodes = WORKLOADS[name]
    runs, setups = [], []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        run = run_child(bins, "perfbench-timed", scenario, nodes, seed)
        check_report(name, seed, run)
        same_report(f"{name} run {len(runs)}", run, runs[0] if runs else run)
        print(describe(len(runs), run))
        runs.append(run)
        setups.append(run["setup_s"])
        topup_start = time.monotonic()
        while True:
            setups.append(run_child(bins, "perfbench-timed", scenario, nodes, seed,
                                    flags=["--setup-only"])["setup_s"])
            if time.monotonic() - topup_start >= SETUP_TOPUP_S:
                break
    print(f"set-up samples: {' '.join(f'{s:.3f}' for s in setups)} s")
    # every run's report is the same (checked above): the first speaks for all
    report = runs[0]["report"]
    # deterministic for a seed, and quantized on publish_flood, so printed
    # here rather than reported as a metric (see README.md)
    print(f"propagation p50 {report['propagation_p50_ms']} p99 {report['propagation_p99_ms']} "
          f"max {report['propagation_max_ms']} simulated ms")
    # check_report holds every publish to live - 1 eligible receivers
    delivered_pairs = (report["delivery_rate"] * report["honest_published"]
                       * (report["peers_final_live"] - 1))
    med = lambda f: statistics.median(f(r) for r in runs)
    metrics = {
        "wall_s": metric(med(lambda r: r["wall_s"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "events_per_s": metric(med(lambda r: r["events"] / (r["wall_s"] - r["setup_s"])), "1/s"),
        "cpu_s": metric(med(lambda r: r["cpu_s"]), "s"),
        "peak_rss_mb": metric(med(lambda r: r["vm_hwm_kb"] / 1024), "MB"),
        "delivered_ratio": metric(report["delivery_rate"], "ratio"),
        "msgs_per_delivery": metric(report["messages_sent"] / delivered_pairs, "msg/pair"),
    }
    # check_report fails the run on any failed publish
    return sum(r["report"]["honest_published"] for r in runs), 0, metrics


def traced(name, seed, bins):
    """Per-layer metrics: one untraced run for the base figures, then the
    traced binary (runs at threads 1 and 2, crypto probes)."""
    scenario, nodes = WORKLOADS[name]
    base = run_child(bins, "perfbench-timed", scenario, nodes, seed)
    check_report(name, seed, base)
    print(describe(0, base))
    t = run_child(bins, "perfbench-traced", scenario, nodes, seed)
    t1, t2, probe = t["t1"], t["t2"], t["probe"]
    for run in (t1, t2):
        same_report(f"{name} traced at threads {run['threads']}", run, base)
        if run["events"] != base["events"]:
            raise BenchError(f"{name}: traced run dispatched {run['events']} events, "
                             f"untraced {base['events']}")
    # everything but the pool's figures comes from the threads-1 run, which
    # also counts every Poseidon permutation (they are counted per thread)
    r = base["report"]
    proofs_made = r["honest_published"] + r["spam_attempted"] - r["spam_send_failures"]
    proving_s = proofs_made * probe["prove_ms"] / 1e3
    wall, setup = base["wall_s"], base["setup_s"]
    # the traced wall less every charged layer; the initial sync is part
    # of setup, so only the sync after it is subtracted again
    engine_other = (t1["wall_s"] - setup - (t1["sync_s"] - t["initial_sync_s"])
                    - t1["dispatch_s"] - t1["drain_s"] - proving_s)
    print(f"traced: wall {t1['wall_s']:.3f} s at threads 1, {t2['wall_s']:.3f} s at threads 2; "
          f"host parallelism {t['host_parallelism']}; probes at depth {probe['depth']}; "
          f"{r['spammers_slashed']} of {r['spammers']} spammers slashed")
    count = lambda v: metric(v, "count")
    metrics = {
        "zksnark.prove_ms": metric(probe["prove_ms"], "ms"),
        "zksnark.proofs_made": count(proofs_made),
        "zksnark.prove_share": ratio(proving_s, wall),
        "zksnark.verify_us": metric(probe["verify_us"], "us"),
        "netsim.dispatch_s": metric(t1["dispatch_s"], "s"),
        "netsim.dispatch_t2_s": metric(t2["dispatch_s"], "s"),
        "netsim.pool_speedup": ratio(t1["dispatch_s"], t2["dispatch_s"]),
        "netsim.events": count(t1["events"]),
        "netsim.messages_sent": count(t1["messages_sent"]),
        "netsim.bytes_sent": metric(t1["bytes_sent"], "bytes"),
        "netsim.pending_at_stop": count(t1["pending"]),
        "gossipsub.duplicates": count(t1["duplicates"]),
        "gossipsub.iwant_sent": count(t1["iwant_sent"]),
        "gossipsub.pings_sent": count(t1["pings_sent"]),
        "gossipsub.delivered_app": count(t1["delivered_app"]),
        "gossipsub.messages_delivered": count(t1["messages_delivered"]),
        "gossipsub.useful_ratio": ratio(t1["delivered_app"], t1["messages_delivered"]),
        "core.sync_s": metric(t1["sync_s"], "s"),
        "core.initial_sync_s": metric(t["initial_sync_s"], "s"),
        "core.drain_s": metric(t1["drain_s"], "s"),
        "core.proofs_submitted": count(t1["proofs_submitted"]),
        "core.proofs_verified": count(t1["proofs_verified"]),
        "core.proofs_verified_ratio": ratio(t1["proofs_verified"], t1["proofs_submitted"]),
        "core.modeled_cpu_us_mean": metric(r["cpu_micros_mean_per_node"], "us"),
        "crypto.poseidon_perms": count(t1["poseidon_perms"]),
        "crypto.poseidon_ns": metric(probe["poseidon_ns"], "ns"),
        "rln.members_end": count(r["members_end"]),
        "ethsim.gas_used": metric(t1["gas_used"], "gas"),
        "scenarios.wall_s": metric(wall, "s"),
        "scenarios.setup_s": metric(setup, "s"),
        "scenarios.engine_other_s": metric(engine_other, "s"),
        "bench.allocs": count(t1["allocs"]),
        "bench.allocs_per_event": ratio(t1["allocs"], t1["events"]),
        "bench.traced_wall_s": metric(t1["wall_s"], "s"),
        "bench.trace_overhead": ratio(t1["wall_s"], wall),
    }
    return r["honest_published"], 0, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        bins = build()
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed, bins)
        else:
            attempted, failed, metrics = timed(args.workload, args.seed, args.seconds, bins)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
