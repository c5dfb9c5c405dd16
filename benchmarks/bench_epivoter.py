"""Micro-benchmark: the frontier-batched EPivoter vs BCList++.

One seeded Chung–Lu graph, full (4, 4) count matrix.  The frontier
engine expands the enumeration tree level-synchronously — candidate
sets live in one contiguous arena per level and the set intersections
run as batched numpy kernels.  Its baseline is the paper's own
baseline, BCList++ (``bc_count(graph, 4, 4)``, a pure-Python
backtracking enumeration of the (4, 4) cell).  ``count_all(4, 4)``
must be at least ``--min-speedup`` times faster (CI guards 12.2x, see
``DEFAULT_MIN_SPEEDUP``).

The local-count walk (``count_local_many`` with the pairs
``[(1, 1), (4, 4)]``, whose size bounds are the frontier's
``(4, 4, 1, 1)``, so it expands the same tree while carrying vertex
ids) is timed and recorded alongside, but not gated.

A secondary workload (the DBLP golden dataset, when its file is
present) is recorded for the trajectory but not asserted: its
frontier run is tens of milliseconds, too small to gate on, and its
(4, 4) cell is empty, so BCList++'s core reduction ends at once.

Run directly (numpy required, no pytest)::

    python benchmarks/bench_epivoter.py --out BENCH_epivoter.json

The equality contract runs before any timing: the frontier matrix must
match the matrix engine on every cell the matrix engine supports and
BCList++ on the (4, 4) cell, the local counts must sum to the (4, 4)
cell, and the local walk must expand as many nodes as ``count_all``,
or the benchmark aborts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.bclist import bc_count  # noqa: E402
from repro.core.epivoter import EPivoter  # noqa: E402
from repro.core.matrix import MATRIX_MAX_P, MATRIX_MAX_Q, matrix_count_all  # noqa: E402
from repro.graph.datasets import available_datasets, load_dataset  # noqa: E402
from repro.graph.generators import chung_lu_bipartite  # noqa: E402
from repro.obs.registry import MetricsRegistry  # noqa: E402

#: The guarded workload: heavy-tailed degrees give the enumeration
#: tree both wide levels (where batching pays) and deep tails, and a
#: ~5 s BCList++ baseline keeps best-of-N timings stable.
GRAPH_PARAMS = dict(n_left=1500, n_right=1500, num_edges=9000, seed=3793)

#: Recorded-only real-graph workload (skipped if the file is absent).
TRAJECTORY_DATASET = "DBLP"

MAX_P = MAX_Q = 4

#: Local-count pairs whose size bounds equal the frontier's
#: ``(MAX_P, MAX_Q, 1, 1)``, so the local walk expands the same tree.
LOCAL_PAIRS = [(1, 1), (MAX_P, MAX_Q)]

#: The gate replaces an older one: the frontier at >= 3.5x over the
#: node-at-a-time set-level walk that local counts used to run.  With
#: interleaved best-of-5 timings of that walk and of BCList++ on the
#: guarded graph (2-core x86 host, three runs: BCList++ / set-level =
#: 3.42, 3.48 and 3.06), 3.5 x 3.48 = 12.2 over BCList++ is at least as
#: strict as the old bar.
DEFAULT_MIN_SPEEDUP = 12.2


def _best_of_interleaved(fns, repeats: int) -> list[float]:
    """Best-of-``repeats`` seconds per function, runs interleaved so a
    slow spell on a shared host hits every function alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _nodes(run) -> int:
    obs = MetricsRegistry()
    run(obs)
    return obs.counters["epivoter.nodes_expanded"]


def _compare(graph, repeats: int) -> dict:
    engine = EPivoter(graph)

    def frontier(obs=None):
        return engine.count_all(MAX_P, MAX_Q, obs=obs)

    def local(obs=None):
        return engine.count_local_many(LOCAL_PAIRS, obs=obs)

    def bclist():
        return bc_count(graph, MAX_P, MAX_Q)

    # Equality contract first: timing a wrong engine is worthless.
    counts = frontier()
    matrix = matrix_count_all(graph, MATRIX_MAX_P, MATRIX_MAX_Q)
    for p, q, value in matrix.items():
        assert counts[p, q] == value, (
            f"frontier and matrix engine differ at ({p}, {q})"
        )
    assert counts[MAX_P, MAX_Q] == bclist(), (
        "frontier (4, 4) cell differs from BCList++"
    )
    left_counts, _ = local()[(MAX_P, MAX_Q)]
    assert sum(left_counts) == MAX_P * counts[MAX_P, MAX_Q], (
        "frontier (4, 4) cell differs from the local counts"
    )
    nodes = _nodes(frontier)
    assert nodes == _nodes(local), "count_all and local counts expand different trees"

    bclist_seconds, local_seconds, frontier_seconds = _best_of_interleaved(
        [bclist, local, frontier], repeats
    )
    return {
        "max_p": MAX_P,
        "max_q": MAX_Q,
        "nonzero_cells": sum(1 for _ in counts.nonzero()),
        "nodes_expanded": nodes,
        "bclist_seconds": bclist_seconds,
        "local_seconds": local_seconds,
        "frontier_seconds": frontier_seconds,
        "speedup": bclist_seconds / frontier_seconds,
    }


def run(repeats: int = 5) -> dict:
    graph = chung_lu_bipartite(**GRAPH_PARAMS)
    guarded = _compare(graph, repeats)

    trajectory = None
    if TRAJECTORY_DATASET in available_datasets():
        trajectory = _compare(load_dataset(TRAJECTORY_DATASET), repeats)
        trajectory["dataset"] = TRAJECTORY_DATASET

    return {
        "schema": "repro-bench-epivoter/3",
        "title": "frontier-batched EPivoter vs BCList++",
        "graph": GRAPH_PARAMS,
        "repeats": repeats,
        "chung_lu": guarded,
        "trajectory": trajectory,
        "created_unix": time.time(),
    }


def _report_line(label: str, entry: dict) -> str:
    return (
        f"{label:18s} bclist {entry['bclist_seconds']*1000:8.2f}ms"
        f"  frontier {entry['frontier_seconds']*1000:8.2f}ms"
        f"  speedup {entry['speedup']:6.2f}x"
        f"  local {entry['local_seconds']*1000:8.2f}ms"
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_epivoter.json"),
        help="where to write the JSON report (default: ./BENCH_epivoter.json)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="fail if the frontier-vs-BCList++ speedup falls below this",
    )
    args = parser.parse_args(argv)

    document = run()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    guarded = document["chung_lu"]
    print(_report_line("chung-lu (guarded)", guarded))
    if document["trajectory"] is not None:
        print(_report_line(TRAJECTORY_DATASET, document["trajectory"]))
    print(f"wrote {args.out}")

    if guarded["speedup"] < args.min_speedup:
        print(
            f"FAIL: frontier speedup {guarded['speedup']:.2f}x"
            f" < {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
