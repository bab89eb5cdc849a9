"""The four benchmark workloads.

Each workload prepares its inputs from the workload seed, builds its
offline stage once for the operations to use (``build``), times repeated
builds of it (``setup``), and exposes one *round*: a fixed list of
operations that the runner repeats whole, back to back, for the run's
length. An operation returns the engine's result; its check, made after
the timed loop, compares that result with a computation made apart from
the engine under test (see ``expected.py`` and ``README.md``).

In a traced run, ``install`` wraps the program's public functions so
that every call into a layer records a span (``spans.py``), and
``layer_metrics`` turns the spans into per-operation layer figures.
"""
from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from inputs import (
    ADVERSARIAL_DATA, ADVERSARIAL_QUERY, HEAVY_INDICES, SIM_INDICES, Relabelling,
    embeddings_digest, heavy_inputs, query_digest, relabel_query, seed_rng,
    selective_inputs, spark_inputs,
)
from spans import Patches, Tracer

import repro.core.local_engine as local_engine
from repro.baselines.bruteforce import brute_force
from repro.core.local_engine import embeddings_in_query_edge_order, hgmatch
from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan
from repro.engine.scheduler import simulate_workstealing
from repro.engine.tasks import HGMatchTaskExecutor
from repro.hyper.model import Hypergraph
from repro.hyper.storage import SignatureStore

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

SPARK_SIZES = ("q2", "q3", "q4")
# A shuffle exchange operator in a plan line (not a ReusedExchange).
EXCHANGE = re.compile(r"(^|\s)Exchange ")
LAYER_METRICS: dict[str, str] = {
    "storage.build_s": "s",
    "storage.postings": "count",
    "order.us_per_query": "us",
    "plan.us_per_query": "us",
    "candidates.s": "s/op",
    "candidates.calls": "count/op",
    "candidates.out": "count/op",
    "validate.s": "s/op",
    "validate.calls": "count/op",
    "validate.vcount_pass": "ratio",
    "validate.profile_pass": "ratio",
    "local.self_s": "s/op",
    "local.ops": "count/op",
    "tasks.execute_s": "s/op",
    "tasks.count": "count/op",
    "scheduler.self_s": "s/op",
    "scheduler.steals": "count/op",
    "spark_storage.build_s": "s",
    **{f"spark.{m}.{k}": u for m, u in (
        ("dataflow_build_s", "s/op"), ("plan_s", "s/op"), ("execute_s", "s/op"),
        ("exchanges", "count"), ("plan_lines", "count"),
    ) for k in SPARK_SIZES},
    "traced.queries_per_s": "1/s",
}


@dataclass
class Op:
    """One operation of a round."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]     # result agrees with the oracle
    embeddings: Callable[[Any], int]
    timed: bool = True
    # A wrong result is counted as failed, not as incorrect: a known
    # fault of the program, run on inputs that do not depend on the seed.
    known_fault: bool = False


def batched_setup(build: Callable[[], Any], batches: int, per_batch: int,
                  warmup: int = 0) -> list[float]:
    """Seconds per build, one figure per batch of ``per_batch`` builds,
    after ``warmup`` untimed builds. The builds are discarded."""
    for _ in range(warmup):
        build()
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(per_batch):
            build()
        times.append((perf_counter() - t0) / per_batch)
    return times


def _count_check(expected: int):
    return lambda r: r.count == expected and not r.timed_out


def _postings(store: SignatureStore) -> int:
    return sum(len(p) for per_sig in store.inverted.values() for p in per_sig.values())


class Workload:
    name = ""
    tail_pct = 100.0  # the tail percentile this workload reports
    min_ops = 1       # timed operations a run needs at least
    rounds: int | None = None  # if set, exactly this many timed rounds

    def prepare(self, seed: int, out_dir: Path) -> None: ...
    def build(self) -> None: ...
    def setup(self, tracer: Tracer | None) -> list[float]: ...
    def round(self) -> list[Op]: ...
    def install(self, patches: Patches) -> None: ...
    def verify(self) -> list[str]:
        """Checks beyond the per-operation ones; returns problems found."""
        return []

    def layer_metrics(self, tracer: Tracer, timed: list[tuple[Op, Any]]) -> dict[str, float]: ...
    def extra_rss_kb(self) -> int:
        return 0

    def close(self) -> None: ...


def _expected(workload: str, qi) -> dict:
    e = EXPECTED[workload].get(qi.key)
    if e is None or e["query"] != query_digest(qi.query):
        raise RuntimeError(
            f"{workload}: expected.json does not describe {qi.key}; "
            "re-run perfbench/expected.py"
        )
    return e


class LocalWorkload(Workload):
    """A workload over the local engine's layers (``core.*``,
    ``hyper.storage``): set-up builds one ``SignatureStore`` per data
    hypergraph in ``self.graphs``; tracing wraps the layer functions."""

    setup_batches, setup_per_batch = 7, 10

    def __init__(self):
        self.counts = {"cand_out": 0, "vcount_pass": 0, "profile_pass": 0}
        self.hg = hgmatch
        self.graphs: list[Hypergraph] = []

    def build(self):
        self.stores = [SignatureStore(H) for H in self.graphs]

    def setup(self, tracer):
        build = SignatureStore if tracer is None else tracer.wrap(SignatureStore, "storage.build")
        return batched_setup(lambda: [build(H) for H in self.graphs],
                             self.setup_batches, self.setup_per_batch)

    def install(self, patches):
        tracer, counts = patches.tracer, self.counts
        cands = local_engine.generate_candidates
        valid = local_engine.is_valid_embedding

        def generate_candidates(step, vsets, store, stats=None):
            out = cands(step, vsets, store, stats)
            counts["cand_out"] += len(out)
            return out

        def is_valid_embedding(step, new_vsets, H, stats=None):
            before = stats["filtered"] if stats is not None else 0
            ok = valid(step, new_vsets, H, stats)
            if stats is not None:
                counts["vcount_pass"] += stats["filtered"] - before
            counts["profile_pass"] += ok
            return ok

        patches.replace(local_engine, "generate_candidates",
                        tracer.wrap(generate_candidates, "candidates"))
        patches.replace(local_engine, "is_valid_embedding",
                        tracer.wrap(is_valid_embedding, "validate"))
        patches.wrap(local_engine, "compute_matching_order", "order")
        patches.wrap(local_engine, "compile_plan", "plan")
        patches.wrap(self, "hg", "hgmatch")

    def ops_charge(self, result) -> int:
        """The ``stats["ops"]`` budget charge of one operation's result."""
        return result.stats["ops"]

    def layer_metrics(self, tracer, timed):
        n, c = len(timed), self.counts
        cand_calls, cand_s, _ = tracer.stat("candidates")
        val_calls, val_s, _ = tracer.stat("validate")
        builds, build_s, _ = tracer.stat("storage.build")
        return {
            # Seconds per set-up, which builds one store per graph.
            "storage.build_s": build_s / max(1, builds) * len(self.graphs),
            "storage.postings": sum(_postings(s) for s in self.stores),
            "order.us_per_query": tracer.stat("order")[1] / n * 1e6,
            "plan.us_per_query": tracer.stat("plan")[1] / n * 1e6,
            "candidates.s": cand_s / n,
            "candidates.calls": cand_calls / n,
            "candidates.out": c["cand_out"] / n,
            "validate.s": val_s / n,
            "validate.calls": val_calls / n,
            "validate.vcount_pass": c["vcount_pass"] / max(1, val_calls),
            "validate.profile_pass": c["profile_pass"] / max(1, c["vcount_pass"]),
            "local.self_s": tracer.stat("hgmatch")[2] / n,
            "local.ops": sum(self.ops_charge(r) for _, r in timed) / n,
        }


class LocalHeavy(LocalWorkload):
    """Heaviest Exp-4 q3 queries on SB through ``hgmatch``."""

    name = "local-heavy"
    tail_pct = 75.0
    min_ops = 40

    def prepare(self, seed, out_dir):
        H, self.queries = heavy_inputs(HEAVY_INDICES)
        self.rl = Relabelling(H, seed_rng(seed, "SB"))
        self.graphs = [self.rl.H]
        self.q = [relabel_query(qi.query, seed_rng(seed, qi.key)) for qi in self.queries]
        self.expected = [_expected(self.name, qi) for qi in self.queries]

    def round(self):
        H, store = self.graphs[0], self.stores[0]
        return [
            Op(qi.key, lambda q=q: self.hg(H, store, q),
               _count_check(e["count"]), lambda r: r.count)
            for qi, q, e in zip(self.queries, self.q, self.expected)
        ]

    def verify(self):
        problems = []
        for qi, q, e in zip(self.queries, self.q, self.expected):
            r = hgmatch(self.graphs[0], self.stores[0], q, collect=True)
            embs = {self.rl.canonical(m) for m in embeddings_in_query_edge_order(r)}
            if len(embs) != r.count or r.count != e["count"]:
                problems.append(f"{qi.key}: {len(embs)} distinct of {r.count}, exact mode {e['count']}")
            if embeddings_digest(embs) != e["embeddings"]:
                problems.append(f"{qi.key}: embedding set differs from the exact-mode set")
            if tuple(qi.source_eids) not in embs:
                problems.append(f"{qi.key}: sampled source hyperedges not among the embeddings")
        return problems


class LocalSelective(LocalWorkload):
    """Table III q2-q6 queries with a handful of embeddings each, on
    many-label stand-ins, through ``hgmatch``."""

    name = "local-selective"
    tail_pct = 99.0
    min_ops = 1000
    setup_batches, setup_per_batch = 5, 1  # one set-up builds four stores

    def prepare(self, seed, out_dir):
        self.data = []  # per graph: [(QueryInput, relabelled q, expected)]
        for name, H, qs in selective_inputs():
            self.graphs.append(Relabelling(H, seed_rng(seed, name)).H)
            self.data.append([
                (qi, relabel_query(qi.query, seed_rng(seed, qi.key)), _expected(self.name, qi))
                for qi in qs
            ])

    def round(self):
        return [
            Op(qi.key, lambda H=H, s=store, q=q: self.hg(H, s, q),
               _count_check(e["count"]), lambda r: r.count)
            for H, store, qs in zip(self.graphs, self.stores, self.data)
            for qi, q, e in qs
        ]


class SimSteal(LocalWorkload):
    """Work-stealing simulation with 20 workers over heavy SB q3 queries."""

    name = "sim-steal"
    tail_pct = 75.0
    min_ops = 40
    workers = 20

    def prepare(self, seed, out_dir):
        H, self.queries = heavy_inputs(SIM_INDICES)
        self.graphs = [Relabelling(H, seed_rng(seed, "SB")).H]
        self.q = [relabel_query(qi.query, seed_rng(seed, qi.key)) for qi in self.queries]
        self.expected = [_expected(self.name, qi)["count"] for qi in self.queries]
        self.order, self.plan, self.sim = compute_matching_order, compile_plan, simulate_workstealing

    def _simulate(self, q, workers):
        store = self.stores[0]
        plan = self.plan(q, self.order(q, store.card))
        ex = HGMatchTaskExecutor(plan, store)
        return self.sim(ex, workers, steal=True), ex

    def round(self):
        def check(i):
            def ok(r):
                one = self.single[i][0]
                return (r[0].emitted == self.expected[i] == one.emitted
                        and r[0].n_tasks == one.n_tasks
                        and r[0].total_cost == one.total_cost)
            return ok
        return [
            Op(qi.key, lambda q=q: self._simulate(q, self.workers), check(i),
               lambda r: r[0].emitted)
            for i, (qi, q) in enumerate(zip(self.queries, self.q))
        ]

    def install(self, patches):
        super().install(patches)
        patches.wrap(self, "order", "order")
        patches.wrap(self, "plan", "plan")
        patches.wrap(self, "sim", "scheduler")
        patches.wrap(HGMatchTaskExecutor, "execute", "tasks.execute")

    def verify(self):
        # Work-conservation reference for the per-operation checks: the
        # same job on one worker.
        self.single = [self._simulate(q, 1) for q in self.q]
        problems = []
        for qi, q, exp in zip(self.queries, self.q, self.expected):
            r = hgmatch(self.graphs[0], self.stores[0], q)
            if r.count != exp:
                problems.append(f"{qi.key}: local engine {r.count}, exact mode {exp}")
        return problems

    def ops_charge(self, result):
        return result[1].stats["ops"]

    def layer_metrics(self, tracer, timed):
        n = len(timed)
        m = super().layer_metrics(tracer, timed)
        calls, exec_s, _ = tracer.stat("tasks.execute")
        m.update({
            "tasks.execute_s": exec_s / n,
            "tasks.count": calls / n,
            "scheduler.self_s": tracer.stat("scheduler")[2] / n,
            "scheduler.steals": sum(r.n_steals for _, (r, _) in timed) / n,
        })
        return m


class SparkQ2Q4(Workload):
    """``dist.engine.spark_hgmatch`` + count on WT, q2/q3/q4, plus the
    adversarial-label instance (untimed, a known fault)."""

    name = "spark-q2q4"
    # Twelve timed queries per run, four of each size: p75 is the
    # fastest q4 query. Only three samples lie beyond it, but the
    # slowest query (the max) spread 26% between runs of unchanged code.
    tail_pct = 75.0
    # A round takes 8-25 s depending on the host, so a stop at --seconds
    # would give one round on some runs and two on others, and the
    # percentiles would pick different queries. Every run times exactly
    # four rounds instead.
    rounds = 4
    # One task thread and one shuffle partition. With two threads and
    # four partitions, the query_ms.p50 of ten runs on a 4-vCPU VM spread
    # 41% (interquartile range over median), against 15-18% with one of
    # each, at the same speed.
    cores = 1
    shuffle_partitions = 1

    def prepare(self, seed, out_dir):
        self.spark = start_spark(out_dir, self.cores, self.shuffle_partitions)
        from repro.dist import engine, storage  # imports pyspark
        self.engine, self.storage = engine, storage
        H, self.queries = spark_inputs()
        self.H = Relabelling(H, seed_rng(seed, "WT")).H
        self.q = [relabel_query(qi.query, seed_rng(seed, qi.key)) for qi in self.queries]
        store = SignatureStore(self.H)
        self.expected = [hgmatch(self.H, store, q).count for q in self.q]
        self.adv_data = Hypergraph(*ADVERSARIAL_DATA)
        self.adv_query = Hypergraph(*ADVERSARIAL_QUERY)
        self.adv_expected, _ = brute_force(self.adv_data, self.adv_query)
        adv_store = SignatureStore(self.adv_data)
        self.adv_local = hgmatch(self.adv_data, adv_store, self.adv_query).count
        self.tracer = None
        self.plans: dict[str, tuple[int, int]] = {}

    def build(self):
        self.sh = self.storage.build_spark_hypergraph(self.spark, self.H)

    def setup(self, tracer):
        build = self.storage.build_spark_hypergraph
        if tracer is not None:
            build = tracer.wrap(build, "spark_storage.build")
        # Timed after the warm-up round, in a warm JVM. Single builds
        # still range from 0.1 to 0.4 s, so the median of many is reported.
        return batched_setup(lambda: build(self.spark, self.H),
                             batches=20, per_batch=1, warmup=3)

    def _count(self, q, size):
        if self.tracer is None:
            return self.engine.spark_hgmatch_count(self.spark, self.sh, q)
        t = self.tracer
        df, _ = t.span(f"spark.dataflow_build.{size}", self.engine.spark_hgmatch,
                       self.spark, self.sh, q)
        agg = df.groupBy().count()
        qe = agg._jdf.queryExecution()
        t.span(f"spark.plan.{size}", qe.executedPlan)
        n = t.span(f"spark.execute.{size}", agg.collect)[0][0]
        # The adaptive plan as executed, without its initial-plan section.
        final = qe.executedPlan().toString().split("== Initial Plan ==")[0].splitlines()
        self.plans[size] = (sum(bool(EXCHANGE.search(ln)) for ln in final), len(final))
        return n

    def round(self):
        ops = [
            Op(qi.key, lambda q=q, s=qi.setting: self._count(q, s),
               lambda n, e=e: n == e, lambda n: n)
            for qi, q, e in zip(self.queries, self.q, self.expected)
        ]
        # The data is indexed inside the operation, so that an index
        # build that rejects the label counts as this query failing.
        ops.append(Op(
            "adversarial-label",
            lambda: self.engine.spark_hgmatch_count(
                self.spark, self.storage.build_spark_hypergraph(self.spark, self.adv_data),
                self.adv_query),
            lambda n: n == self.adv_expected, lambda n: n, timed=False, known_fault=True))
        return ops

    def install(self, patches):
        patches.replace(self, "tracer", patches.tracer)

    def verify(self):
        if self.adv_local != self.adv_expected:
            return [f"adversarial-label: local engine {self.adv_local}, brute force {self.adv_expected}"]
        return []

    def layer_metrics(self, tracer, timed):
        m = {"spark_storage.build_s": tracer.stat("spark_storage.build")[1]
             / max(1, tracer.stat("spark_storage.build")[0])}
        for size in SPARK_SIZES:
            for metric, span in (("dataflow_build_s", "dataflow_build"), ("plan_s", "plan"),
                                 ("execute_s", "execute")):
                calls, total, _ = tracer.stat(f"spark.{span}.{size}")
                m[f"spark.{metric}.{size}"] = total / max(1, calls)
            m[f"spark.exchanges.{size}"], m[f"spark.plan_lines.{size}"] = self.plans.get(size, (0, 0))
        return m

    def extra_rss_kb(self):
        """Peak resident set of the Spark JVM."""
        pid = self.spark._jvm.java.lang.ProcessHandle.current().pid()
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def close(self):
        if getattr(self, "spark", None) is not None:
            stop_spark(self.spark)


def start_spark(out_dir: Path, cores: int, shuffle_partitions: int):
    """A ``local[k]`` session whose scratch files stay under ``out_dir``."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(out_dir / "spark-local")
    k = max(1, min(cores, os.cpu_count() or 1))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{k}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf \"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} -XX:+UseSerialGC\" "
        f"--conf spark.sql.warehouse.dir={out_dir / 'spark-warehouse'} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on end of its standard input
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (LocalHeavy, LocalSelective, SparkQ2Q4, SimSteal)
}
