#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

Runs the command in ../BENCHMARK.json the way the driver does — one
process per (workload, seed) — twice over the same seeds on the same
tree, then prints for every workload and end-to-end metric both medians,
both spreads (interquartile range / median over the runs of a set), the
relative difference of the medians and the metric's bound. It fails when
a spread (other than that of setup_s) or a difference exceeds its bound,
when a counter that must repeat exactly does not, when the spans of a
lockstep workload leave more than 3 % of its wall-clock uncovered, or
when the traced pass shows the workloads no longer separate the layers
as designed.

    python3 sysbench/aa.py                    # 2 sets x 10 seeds, ~45 min
    python3 sysbench/aa.py --runs 4 --seconds 3 --workloads kv-read
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Lockstep workloads have no timer and no second thread, so on the same
# seed these repeat bit for bit (the open-loop workload's do not).
EXACT_END_TO_END = ["nvm_write_bytes_per_op", "nvm_space_amp"]
EXACT_PER_LAYER = [
    "kernel.write_faults_per_op",
    "kernel.cow_copies_per_op",
    "nvm.page_copies_per_op",
]


def is_lockstep(workload):
    return "openloop" not in workload


def run(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    delta = (second - first) / first
    return delta if metric["better"] == "lower" else -delta


def layer_checks(traced):
    """The separation the workloads were designed for (README, 'Workloads')."""
    t = traced
    lockstep = [w for w in t if is_lockstep(w)]
    return [
        ("kv-write-wide takes >= 1.0 CoW faults/op",
         t["kv-write-wide"]["kernel.write_faults_per_op"] >= 1.0),
        ("kv-write-hot takes <= 0.2 CoW faults/op",
         t["kv-write-hot"]["kernel.write_faults_per_op"] <= 0.2),
        ("kv-read takes <= 0.06 CoW faults/op",
         t["kv-read"]["kernel.write_faults_per_op"] <= 0.06),
        ("kv-write-hot stop-and-copies more pages per round than kv-write-wide",
         t["kv-write-hot"]["checkpoint.hybrid_sac_copies_per_round"]
         > t["kv-write-wide"]["checkpoint.hybrid_sac_copies_per_round"]),
        ("no epoch conflict, in-line log capture or replication on lockstep workloads",
         all(t[w][m] == 0 for w in lockstep for m in t[w]
             if m.startswith("repl.") or m in ("checkpoint.epoch_conflicts_per_round",
                                               "checkpoint.inline_log_captures_per_round"))),
        ("kv-openloop-repl ships bytes every round",
         t["kv-openloop-repl"]["repl.bytes_shipped_per_round"] > 0),
        ("transactions commit on txn-ycsb-a only",
         all((t[w]["txn.commits_per_s"] > 0) == (w == "txn-ycsb-a") for w in t)),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = range(1, args.runs + 1)
    failures = []

    def one_set(label):
        """{workload: {metric: [value per seed]}}"""
        per_workload = {}
        for w in workloads:
            runs = []
            for seed in seeds:
                runs.append(run(w, seed, args.seconds, 0))
                print(f"set {label} {w} seed {seed}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
            per_workload[w] = {m["name"]: [r[m["name"]] for r in runs] for m in SPEC["end_to_end"]}
        return per_workload

    a, b = one_set("A"), one_set("B")
    print(f"\nA/A: 2 sets x {args.runs} seeds x {args.seconds} s on one tree")
    print(f"{'workload':<18}{'metric':<24}{'median A':>14}{'spread A':>10}"
          f"{'median B':>14}{'spread B':>10}{'B worse by':>12}{'bound':>7}  verdict")
    for w in workloads:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a[w][name], b[w][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = max(worse_by(metric, ma, mb), worse_by(metric, mb, ma))
            ok = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            if not ok:
                failures.append(f"{w} {name}: spread {max(sa, sb):.4f}, difference {worse:.4f}, bound {bound}")
            print(f"{w:<18}{name:<24}{ma:>14.6g}{sa:>10.4f}{mb:>14.6g}{sb:>10.4f}"
                  f"{worse:>12.4f}{bound:>7}  {'ok' if ok else 'FAIL'}")

    print("\ncounters that must repeat exactly on the same seed (lockstep workloads):")
    for w in filter(is_lockstep, workloads):
        for name in EXACT_END_TO_END:
            same = a[w][name] == b[w][name]
            print(f"  {w:<18}{name:<32}{'identical on all seeds' if same else 'DIFFERS'}")
            if not same:
                failures.append(f"{w} {name} is not bit-identical between sets")

    print("\ntraced pass (seed 1), once per set:")
    ta, tb = ({w: run(w, 1, args.seconds, 1) for w in workloads} for _ in "AB")
    for w in filter(is_lockstep, workloads):
        for name in EXACT_PER_LAYER:
            va, vb = ta[w][name], tb[w][name]
            print(f"  {w:<18}{name:<32}{va!r:>22} {'identical' if va == vb else f'DIFFERS: {vb!r}'}")
            if va != vb:
                failures.append(f"{w} {name} is not bit-identical between sets")
    print("\ntracing overhead (traced / untraced goodput on seed 1) and span budget:")
    for w in workloads:
        for t, untraced in ((ta, a), (tb, b)):
            ratio = t[w]["client.traced_goodput_ops_s"] / untraced[w]["goodput_ops_s"][0]
            print(f"  {w:<18}client.trace_overhead_ratio {ratio:>8.4f}", end="")
            if is_lockstep(w):
                residual = t[w]["client.budget_residual_ratio"]
                ok = residual <= 0.03
                print(f"   client.budget_residual_ratio {residual:>8.4f}  {'ok' if ok else 'FAIL'}", end="")
                if not ok:
                    failures.append(f"{w}: spans leave {residual:.4f} of the wall-clock uncovered")
            print()
    if set(workloads) == {x["name"] for x in SPEC["workloads"]}:
        print("\nlayer separation:")
        for name, ok in layer_checks(ta):
            print(f"  {'ok  ' if ok else 'FAIL'} {name}")
            if not ok:
                failures.append(name)

    if failures:
        print("\nA/A FAILED:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("\nA/A passed: every spread and every difference is within its bound.")


if __name__ == "__main__":
    main()
