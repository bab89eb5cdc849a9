"""HGMatch benchmark: one workload per invocation, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload local-heavy --seed 1 --seconds 6 --trace 0

Phases: inputs are generated from ``--seed``; the offline stage is
built once; one untimed warm-up round runs; repeated builds of the
offline stage are timed (``setup_s``); then whole rounds
of the workload's operations run back to back until ``--seconds`` have
passed and the workload's minimum number of timed operations is
reached. Every result is checked against an independent computation
after the timed loop. With ``--trace 1`` the program's public functions
are wrapped to record spans and the per-layer metrics are printed
instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Patches, Tracer  # noqa: E402
from workloads import LAYER_METRICS, WORKLOADS, peak_rss_kb  # noqa: E402


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail(lat: list[float], pct: float) -> tuple[float, str]:
    """The workload's tail percentile, described with the number of
    samples that lie beyond it; fewer than ten make it no tail."""
    s = sorted(lat)
    beyond = len(s) - max(1, math.ceil(pct / 100.0 * len(s)))
    desc = f"p{pct:g} of {len(s)} timed operations"
    if beyond < 10:
        desc += f", {beyond} samples beyond it: too few for a tail"
    return percentile(s, pct), desc


def attempt(op):
    """Run ``op``; returns ``(result, seconds, error message or None)``."""
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an operation that fails is counted, not fatal
        return None, perf_counter() - t0, f"{op.name}: {type(exc).__name__}: {exc}"
    return result, perf_counter() - t0, None


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    wl = WORKLOADS[workload]()
    tracer = Tracer() if traced else None
    problems: list[str] = []
    try:
        wl.prepare(seed, out_dir)
        wl.build()
        ops = wl.round()
        for op in ops:  # warm-up: lazy caches and JIT, untimed, unchecked
            _, _, error = attempt(op)
            if error is not None and not op.known_fault:
                problems.append(f"warm-up {error}")
        setup_times = wl.setup(tracer)
        patches = None
        if traced:
            patches = Patches(tracer)
            wl.install(patches)

        timed: list[tuple] = []    # (op, result) of completed timed ops
        untimed: list[tuple] = []
        lat: list[float] = []
        busy = 0.0                 # time in timed operations, failed ones too
        attempted = failed = 0
        known: dict[str, list[int]] = {}  # known fault: [attempted, failed]
        t_start = perf_counter()
        n_rounds = 0
        while True:
            n_rounds += 1
            completed = 0
            for op in ops:
                attempted += 1
                result, d, error = attempt(op)
                if op.timed:
                    busy += d
                if op.known_fault:
                    known.setdefault(op.name, [0, 0])[0] += 1
                if error is not None:
                    failed += 1
                    if op.known_fault:
                        known[op.name][1] += 1
                    else:
                        problems.append(error)
                elif op.timed:
                    completed += 1
                    lat.append(d)
                    timed.append((op, result))
                else:
                    untimed.append((op, result))
            if wl.rounds is not None:
                if n_rounds == wl.rounds:
                    break
            elif completed == 0 or (perf_counter() - t_start >= seconds
                                    and len(lat) >= wl.min_ops):
                break
        if patches is not None:
            patches.undo()
        # Read before the checks, whose reference runs hold more results
        # in memory than the timed operations do.
        peak_kb = peak_rss_kb() + wl.extra_rss_kb()

        problems += wl.verify()
        for op, result in timed + untimed:
            if op.check(result):
                continue
            if op.known_fault:
                failed += 1
                known[op.name][1] += 1
            else:
                problems.append(f"{op.name}: wrong result {op.embeddings(result)}")
    finally:
        wl.close()

    n = len(lat)
    if traced:
        metrics = {name: 0 for name in LAYER_METRICS}
        if n:
            metrics.update(wl.layer_metrics(tracer, timed))
            metrics["traced.queries_per_s"] = n / busy
        units = LAYER_METRICS
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.tsv")
        print(f"spans: {tracer.recorded} recorded, {tracer.dropped} not kept")
    else:
        if not n:
            raise SystemExit("no timed operation completed: " + "; ".join(problems[:5]))
        tail_ms, tail_desc = tail(lat, wl.tail_pct)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "query_ms.p50": percentile(sorted(lat), 50.0) * 1e3,
            "query_ms.tail": tail_ms * 1e3,
            "queries_per_s": n / busy,
            "embeddings_per_s": sum(op.embeddings(r) for op, r in timed) / busy,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = {"setup_s": "s", "query_ms.p50": "ms", "query_ms.tail": "ms",
                 "queries_per_s": "1/s", "embeddings_per_s": "1/s", "peak_rss_mb": "MB"}
        print(f"query_ms.tail: {tail_desc}")

    print(f"workload {workload}: seed {seed}, {n} timed operations in {busy:.3f} s, "
          f"{attempted} attempted, {failed} failed")
    for name, (att, fail) in known.items():
        print(f"  {name} (known fault, untimed): attempted {att}, failed {fail}")
    for msg in problems[:20]:
        print(f"  CHECK FAILED {msg}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
