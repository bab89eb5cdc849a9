"""Steadiness check: run each workload repeatedly and print every
end-to-end metric's spread next to its bound from ``BENCHMARK.json``.

Run from the repository root, e.g.::

    python3 perfbench/spread.py --runs 10 --sets 2 --first-seed 100
    python3 perfbench/spread.py --workloads spark-q2q4 --runs 5 --overhead

Each run uses its own seed and the run length ``run_seconds`` from
``BENCHMARK.json``. The spread is the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median. With ``--sets 2`` or more, each workload is run in that many
sets of ``--runs`` runs, and every later set's median is compared with
the first set's: the shift in the metric's worse direction, as a share
of the first median, is printed next to the bound. ``--overhead`` adds
one traced run per workload and prints the tracing overhead (untraced
median ``queries_per_s`` over the traced run's ``traced.queries_per_s``,
minus one) and the traced run's nonzero per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of the benchmark; adds its wall time as ``wall_s``."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    for workload in args.workloads:
        sets = []  # per set: {metric: median}
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                r = run_once(bench["command"], workload, seed, seconds, 0)
                results.append(r)
                print(f"{workload} seed {seed} ({r['wall_s']:.0f} s): correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{n}={v['value']:.4g}" for n, v in r["metrics"].items()),
                      flush=True)
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"== {workload} set {k + 1}: {args.runs} runs, all correct: "
                  f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
            medians = {}
            for name, m in metrics.items():
                vals = [r["metrics"][name]["value"] for r in results]
                med = medians[name] = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                bound = m["bound"]
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                print(f"   {name:18s} median {med:12.5g}  spread {spread:7.2%}  "
                      f"bound {bound:5.0%}  {flag}")
            sets.append(medians)
        for k, medians in enumerate(sets[1:], start=2):
            print(f"== {workload}: set {k} against set 1, median shift in the worse direction")
            for name, m in metrics.items():
                first, later = sets[0][name], medians[name]
                worse = (later - first if m["better"] == "lower" else first - later) / first
                flag = "ok" if worse <= m["bound"] else "TOO FAR"
                print(f"   {name:18s} {first:12.5g} -> {later:12.5g}  worse by {worse:7.2%}  "
                      f"bound {m['bound']:5.0%}  {flag}")
        if args.overhead:
            t = run_once(bench["command"], workload, args.first_seed, seconds, 1)
            qps = sets[0]["queries_per_s"]
            traced = t["metrics"]["traced.queries_per_s"]["value"]
            print(f"   tracing overhead: {qps / traced - 1:.1%} "
                  f"({qps:.4g} untraced vs {traced:.4g} traced queries/s)")
            for name, m in t["metrics"].items():
                if m["value"]:
                    print(f"   {name:28s} {m['value']:12.6g} {m['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
