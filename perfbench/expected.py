"""Recompute ``expected.json`` from the oracles.

Run from the repository root: ``python3 perfbench/expected.py``.

- ``local-heavy`` and ``sim-steal``: embedding counts from the local
  engine's exact bijection mode (``validation="exact"``). For
  ``local-heavy`` the full embedding set is also kept as a digest, after
  every embedding in it has passed the brute-force oracle's
  label-preserving bijection check.
- ``local-selective``: counts from the CFL-H vertex-at-a-time baseline
  (``baselines.backtrack.match_by_vertex``).

All of it is computed on the canonical (un-relabelled) inputs; counts
and canonical embedding sets do not depend on the workload seed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import (  # noqa: E402
    HEAVY_INDICES, SIM_INDICES, embeddings_digest, heavy_inputs, query_digest,
    selective_inputs,
)
from repro.baselines.backtrack import match_by_vertex  # noqa: E402
from repro.baselines.bruteforce import _mapping_exists  # noqa: E402
from repro.core.local_engine import embeddings_in_query_edge_order, hgmatch  # noqa: E402
from repro.hyper.storage import SignatureStore  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def main() -> None:
    out: dict[str, dict] = {"local-heavy": {}, "sim-steal": {}, "local-selective": {}}
    H, qs = heavy_inputs(HEAVY_INDICES + SIM_INDICES)
    store = SignatureStore(H)
    for qi in qs:
        r = hgmatch(H, store, qi.query, validation="exact", collect=True)
        entry = {"query": query_digest(qi.query), "count": r.count}
        if int(qi.key.rsplit("/", 1)[1]) in HEAVY_INDICES:
            embs = embeddings_in_query_edge_order(r)
            bad = [m for m in embs if not _mapping_exists(qi.query, H, m)]
            if bad or len(embs) != r.count:
                raise SystemExit(f"{qi.key}: exact mode and brute force disagree")
            entry["embeddings"] = embeddings_digest(embs)
            out["local-heavy"][qi.key] = entry
        else:
            out["sim-steal"][qi.key] = entry
        print(qi.key, entry, flush=True)
    for _name, H, sel in selective_inputs():
        for qi in sel:
            r = match_by_vertex(H, qi.query, strategy="cfl", use_ihs=True)
            out["local-selective"][qi.key] = {
                "query": query_digest(qi.query), "count": r.tuple_count,
            }
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
