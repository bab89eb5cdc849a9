"""Benchmark inputs: which datasets and queries each workload runs, and
how the workload seed turns them into the inputs the program receives.

Queries are fixed by (dataset, scale, sampling seed, sample index) and
drawn with the program's own random-walk sampler
(``repro.hyper.queries.sample_queries``); they are never re-picked by
running an engine, so an engine change cannot change its own inputs.

The workload seed (``--seed``) draws a random isomorphic copy of each
data hypergraph: vertex ids and hyperedge ids are permuted, and so are
the vertex ids of each query. Embedding counts are invariant under this
relabelling, so the same expected counts hold for every seed, while the
engine sees different ids, set iteration orders and candidate orders on
each seed. The work an engine is charged (``stats["ops"]``) is also
invariant, which keeps the workloads equally heavy on every seed.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.experiments.datasets import make_dataset
from repro.hyper.model import Hypergraph
from repro.hyper.queries import TABLE3_SETTINGS, QuerySetting, sample_queries

# Exp-4's query protocol: q3 queries sampled on SB with seed 7
# (``repro.experiments.harness.pick_heavy_queries``). Indices 8 and 4
# are the two queries Exp-4 picks (43,938 and 37,055 embeddings); 5 is
# the third heaviest of the same 12 samples (22,948 embeddings).
EXP4_Q3 = QuerySetting("q3", 3, 10, 20)
EXP4_SEED = 7
HEAVY_INDICES = (8, 4, 5)
# Further down the same sample stream: the two heaviest q3 queries under
# 10,000 embeddings (8,784 and 7,635). One simulation at 20 workers
# takes about 0.3 s, so the 40 simulations a run needs take about
# 12 s; the Exp-4 queries take about 1.2 s each, 48 s for 40.
SIM_INDICES = (54, 1)

SELECTIVE_DATASETS = ("MA", "TC", "WT", "SA")
SELECTIVE_SEED = 0
SELECTIVE_PER_SETTING = 4  # sample indices 0..3 of every Table III setting

SPARK_DATASET, SPARK_SCALE, SPARK_SEED = "WT", 0.5, 0
SPARK_SETTINGS = TABLE3_SETTINGS[:3]  # q2, q3, q4; sample index 0 each

# Adversarial-label instance: the label "A,B" collides with the pair of
# labels "A", "B" under a ","-joined signature encoding.
ADVERSARIAL_DATA = (["A,B", "C"], [[0, 1]])
ADVERSARIAL_QUERY = (["A", "B", "C"], [[0, 1, 2]])


@dataclass(frozen=True)
class QueryInput:
    key: str                      # "<dataset>@<scale>/<setting>/<seed>/<index>"
    setting: str                  # "q2", "q3", ...
    query: Hypergraph             # as sampled (canonical vertex ids)
    source_eids: tuple[int, ...]  # sampled data hyperedges, query-edge order


def sample(H: Hypergraph, dataset: str, scale: float, setting: QuerySetting,
           seed: int, indices) -> list[QueryInput]:
    sqs = sample_queries(H, setting, max(indices) + 1, seed=seed)
    return [
        QueryInput(f"{dataset}@{scale}/{setting.name}/{seed}/{i}", setting.name,
                   sqs[i].query, sqs[i].source_eids)
        for i in indices
    ]


def heavy_inputs(indices=HEAVY_INDICES) -> tuple[Hypergraph, list[QueryInput]]:
    H = make_dataset("SB", scale=1.0)
    return H, sample(H, "SB", 1.0, EXP4_Q3, EXP4_SEED, indices)


def selective_inputs() -> list[tuple[str, Hypergraph, list[QueryInput]]]:
    out = []
    for name in SELECTIVE_DATASETS:
        H = make_dataset(name, scale=1.0)
        qs = [
            qi
            for st in TABLE3_SETTINGS
            for qi in sample(H, name, 1.0, st, SELECTIVE_SEED,
                             range(SELECTIVE_PER_SETTING))
        ]
        out.append((name, H, qs))
    return out


def spark_inputs() -> tuple[Hypergraph, list[QueryInput]]:
    H = make_dataset(SPARK_DATASET, scale=SPARK_SCALE)
    qs = [qi for st in SPARK_SETTINGS
          for qi in sample(H, SPARK_DATASET, SPARK_SCALE, st, SPARK_SEED, [0])]
    return H, qs


def query_digest(q: Hypergraph) -> str:
    """Fingerprint of a query, to detect a stale expected-results file."""
    text = repr((q.labels, [sorted(e) for e in q.edges]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def embeddings_digest(embs) -> str:
    """Order-independent fingerprint of a set of embedding tuples."""
    text = "\n".join(",".join(map(str, t)) for t in sorted(embs))
    return hashlib.sha256(text.encode()).hexdigest()


class Relabelling:
    """A seed-drawn isomorphic copy of a data hypergraph."""

    def __init__(self, H: Hypergraph, rng: np.random.Generator):
        self.vperm = rng.permutation(H.n_vertices).tolist()
        self.eperm = rng.permutation(H.n_edges).tolist()
        labels = [""] * H.n_vertices
        for v, nv in enumerate(self.vperm):
            labels[nv] = H.labels[v]
        edges: list[list[int]] = [[]] * H.n_edges
        for e, ne in enumerate(self.eperm):
            edges[ne] = [self.vperm[v] for v in H.edges[e]]
        self.H = Hypergraph(labels, edges)
        self.einv = [0] * H.n_edges
        for e, ne in enumerate(self.eperm):
            self.einv[ne] = e

    def canonical(self, emb: tuple[int, ...]) -> tuple[int, ...]:
        """Embedding tuple in the original hyperedge ids."""
        return tuple(self.einv[e] for e in emb)


def relabel_query(q: Hypergraph, rng: np.random.Generator) -> Hypergraph:
    """``q`` with permuted vertex ids; hyperedge order is kept, so the
    matching order (which breaks ties on hyperedge id) is unchanged."""
    perm = rng.permutation(q.n_vertices).tolist()
    labels = [""] * q.n_vertices
    for u, nu in enumerate(perm):
        labels[nu] = q.labels[u]
    return Hypergraph(labels, [[perm[u] for u in e] for e in q.edges])


def seed_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (workload seed, dataset or query key)."""
    return np.random.default_rng([seed % 2**63, int(hashlib.sha256(tag.encode()).hexdigest()[:8], 16)])
