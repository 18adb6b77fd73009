#!/usr/bin/env python3
"""Repeat-run reports over ``perfbench/run.py``.

A/A steadiness: two sets of runs of the same code, alternating between
the sets, one seed per run pair; per workload and end-to-end metric, each
set's median and quartiles and how the spread compares with the bound in
BENCHMARK.json:

    python3 perfbench/report.py aa --seeds 1 2 3 4 5 6 7 8 9 10

Tracing overhead: untraced and traced runs on the same seeds; prints the
end-to-end medians of both and the overhead (traced minus untraced), and
the per-layer table of the last traced run:

    python3 perfbench/report.py trace --seeds 1 2 3

Run from the repository root.  Results also go to ``perfbench/.out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec: dict, workload: str, seed: int, trace: int,
             seconds: int) -> tuple[dict, str]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)}: output checks failed")
    return res, p.stderr


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def cmd_aa(args, spec: dict) -> dict:
    names = args.workloads
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {s: {m: [] for m in bounds} for s in "AB"} for w in names}
    for i, seed in enumerate(args.seeds):
        for w in names:
            for s in ("AB" if i % 2 == 0 else "BA"):
                res, _ = run_once(spec, w, seed, 0, args.seconds)
                for m in bounds:
                    values[w][s][m].append(res["metrics"][m]["value"])
                print(f"{w} seed {seed} set {s}: " + ", ".join(
                    f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds),
                    file=sys.stderr, flush=True)
    report = {}
    print(f"{'workload':12s} {'metric':28s} {'set':3s} {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'/bound':>7s} "
          f"{'B-A':>7s}")
    for w in names:
        for m, bound in bounds.items():
            row = {}
            for s in "AB":
                q1, med, q3 = quartiles(values[w][s][m])
                row[s] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med,
                          "spread_over_bound": (q3 - q1) / med / bound,
                          "values": values[w][s][m]}
            shift = (row["B"]["median"] - row["A"]["median"]) \
                / row["A"]["median"]
            row["median_shift"] = shift
            report.setdefault(w, {})[m] = row
            for s in "AB":
                r = row[s]
                print(f"{w:12s} {m:28s} {s:3s} {r['median']:11.4f} "
                      f"{r['q1']:11.4f} {r['q3']:11.4f} {r['spread']:7.3f} "
                      f"{r['spread_over_bound']:7.3f} "
                      f"{shift if s == 'B' else float('nan'):7.3f}")
    return report


def cmd_trace(args, spec: dict) -> dict:
    report = {}
    for w in args.workloads:
        plain, traced = {}, {}
        for seed in args.seeds:
            res, _ = run_once(spec, w, seed, 0, args.seconds)
            for m, v in res["metrics"].items():
                plain.setdefault(m, []).append(v["value"])
            res, err = run_once(spec, w, seed, 1, args.seconds)
            tail = err.split("-- end-to-end metrics of this traced run --")
            for line in tail[-1].splitlines():
                name, *rest = line.split() or [""]
                if name in plain and rest:
                    traced.setdefault(name, []).append(float(rest[0]))
        table = err[err.index("== per-layer"):]
        print(table)
        print(f"-- tracing overhead on {w}, medians over seeds "
              f"{args.seeds} --")
        print(f"{'metric':28s} {'untraced':>12s} {'traced':>12s} "
              f"{'overhead':>12s}")
        rows = {}
        for m in plain:
            a = statistics.median(plain[m])
            b = statistics.median(traced[m])
            rows[m] = {"untraced": a, "traced": b, "overhead": b - a}
            print(f"{m:28s} {a:12.4f} {b:12.4f} {b - a:12.4f}")
        report[w] = {"overhead": rows, "per_layer_table": table}
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("aa", "trace"))
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload in BENCHMARK.json")
    args = ap.parse_args()
    spec = load_spec()
    args.seconds = args.seconds or spec["run_seconds"]
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = (cmd_aa if args.mode == "aa" else cmd_trace)(args, spec)
    out_dir = os.path.join(ROOT, "perfbench", ".out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"report-{args.mode}.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
