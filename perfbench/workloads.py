"""Seeded inputs for the four workloads: graphs and request sequences.

Everything here is a pure function of the ``--seed`` argument, so one
seed always yields the same graphs and the same requests.  The server
only ever sees the generated edge lists and request bodies over HTTP.

Graph sizes are fixed per workload; the seed varies only which edges
are drawn.  That keeps the work per run comparable across seeds.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.graph.bigraph import BipartiteGraph
from repro.graph.generators import affiliation_bipartite, chung_lu_bipartite

__all__ = [
    "Op",
    "Workload",
    "WORKLOADS",
    "build",
    "graph_payload",
    "parse_version",
]

#: Hot working set: distinct keys, far below the 1024-entry result cache.
HOT_KEYS = 64
#: Cold and approx shapes.  Approx avoids the closed-form matrix shapes
#: (min(p, q) <= 2 and (3, 3)) so every estimate reaches a sampler.
COLD_SHAPES = [(p, q) for p in range(1, 6) for q in range(1, 6)]
APPROX_SHAPES = [(3, 4), (4, 3), (4, 4), (3, 5), (5, 3)]
#: One approx round: 3 sampled estimates (hybrid), 1 accuracy-budget
#: estimate (adaptive), 4 counts carrying a deadline.
DEADLINES_MS = (20, 50, 200, 500)
ESTIMATE_SAMPLES = 2000
ADAPTIVE = {"epsilon": 0.25, "delta": 0.1, "samples": 500}
#: Mutation batches: this many inserts and as many deletes per PATCH.
PATCH_EDGES = 16
#: Every HEAVY_EVERY-th PATCH is followed by reads that need a snapshot.
HEAVY_EVERY = 5


@dataclass(frozen=True)
class Op:
    """One HTTP request the benchmark sends."""

    method: str
    path: str
    body: dict

    @property
    def kind(self) -> str:
        """``count``, ``estimate`` or ``patch``."""
        return "patch" if self.method == "PATCH" else self.path.rsplit("/", 1)[1]

    @property
    def key(self) -> "tuple | None":
        """``(graph, p, q)`` of a query, the oracle's index."""
        if self.method == "PATCH":
            return None
        return (self.body["graph"], self.body["p"], self.body["q"])


@dataclass
class Workload:
    """Inputs of one run: resident graphs, warm-up, and the timed stream."""

    name: str
    seed: int
    graphs: "dict[str, BipartiteGraph]"
    #: Largest (p, q) the oracle must cover on every graph.
    oracle_shape: tuple[int, int]
    #: Builds one connection's timed request stream from its own RNG.
    make_stream: "Callable[[random.Random], Iterator[Op]]"
    #: Requests sent once during set-up (fills the cache for ``hot``).
    warmup: "list[Op]" = field(default_factory=list)
    connections: int = 1

    def stream(self, connection: int) -> Iterator[Op]:
        """The timed request stream of one connection."""
        return self.make_stream(random.Random(f"{self.name}/{self.seed}/{connection}"))


def _chung_lu(edges: int, rng: random.Random, side: int = 0) -> BipartiteGraph:
    side = side or edges // 4
    return chung_lu_bipartite(side, side, edges, seed=rng.getrandbits(32))


def _affiliation(n_right: int, rng: random.Random) -> BipartiteGraph:
    return affiliation_bipartite(
        n_right * 7 // 10, n_right, mean_group_size=3.0, seed=rng.getrandbits(32)
    )


def _query(kind: str, graph: str, p: int, q: int, **extra) -> Op:
    return Op("POST", f"/v1/{kind}", {"graph": graph, "p": p, "q": q, **extra})


def _hot(seed: int) -> Workload:
    rng = random.Random(f"hot/{seed}")
    graphs = {
        "hot-cl-a": _chung_lu(6000, rng),
        "hot-cl-b": _chung_lu(8000, rng),
        "hot-af": _affiliation(2200, rng),
    }
    # Cheap shapes only (stars and closed forms), so the warm-up that
    # fills the cache stays a small part of set-up.
    shapes = [(p, q) for p in range(1, 5) for q in range(1, 5) if min(p, q) <= 2]
    candidates = [
        _query("count", g, p, q) for g in graphs for p, q in shapes
    ] + [
        _query("estimate", g, p, q, samples=ESTIMATE_SAMPLES, seed=7)
        for g in graphs for p, q in shapes
    ]
    keys = rng.sample(candidates, HOT_KEYS)
    return Workload("hot", seed, graphs, (4, 4),
                    lambda r: (r.choice(keys) for _ in itertools.count()),
                    warmup=keys, connections=2)


def _cold(seed: int) -> Workload:
    rng = random.Random(f"cold/{seed}")
    # Six affiliation graphs to four Chung-Lu ones put the median request
    # inside the affiliation graphs' closed-form (2, q) band instead of on
    # the edge between two bands, which keeps latency_p50_ms steady.
    graphs = {}
    for i, edges in enumerate((6000, 7000, 8500, 10000)):
        graphs[f"cold-cl-{i}"] = _chung_lu(edges, rng)
    for i, n_right in enumerate((1700, 2000, 2300, 2600, 2900, 3300)):
        graphs[f"cold-af-{i}"] = _affiliation(n_right, rng)
    keys = [_query("count", g, p, q) for g in graphs for p, q in COLD_SHAPES]
    rng.shuffle(keys)
    return Workload("cold", seed, graphs, (5, 5), lambda r: iter(keys))


def _approx(seed: int) -> Workload:
    rng = random.Random(f"approx/{seed}")
    # A sparser Chung-Lu graph: EPivoter is predicted at 0.05-0.06 s, so
    # 20 and 50 ms deadlines degrade and 200 and 500 ms ones stay exact,
    # each with a factor of 1.6 or more to spare.
    graphs = {f"approx-cl-{i}": _chung_lu(2000, rng, side=700) for i in range(4)}
    return Workload("approx", seed, graphs, (5, 5),
                    functools.partial(_approx_stream, sorted(graphs)))


def _bag(items: list, rng: random.Random) -> Iterator:
    """Endless draws that use every item once per shuffled round."""
    while True:
        round_ = list(items)
        rng.shuffle(round_)
        yield from round_


def _approx_stream(names: "list[str]", rng: random.Random) -> Iterator[Op]:
    block = [{"kind": "estimate", "samples": ESTIMATE_SAMPLES}] * 3
    block.append({"kind": "estimate", **ADAPTIVE})
    block.extend({"kind": "count", "deadline_ms": d} for d in DEADLINES_MS)
    # Drawing request types, shapes and graphs from bags keeps the mix of
    # every run the same, so runs differ in their seeds, not their mix.
    specs, shapes, graphs = _bag(block, rng), _bag(APPROX_SHAPES, rng), _bag(names, rng)
    while True:
        spec = next(specs)
        p, q = next(shapes)
        extra = {k: v for k, v in spec.items() if k != "kind"}
        yield _query(spec["kind"], next(graphs), p, q, seed=rng.getrandbits(31), **extra)


def _mutate(seed: int) -> Workload:
    rng = random.Random(f"mutate/{seed}")
    base = _chung_lu(3000, rng)
    return Workload("mutate", seed, {"mutate": base}, (4, 4),
                    functools.partial(_mutate_stream, base))


def _mutate_stream(base: BipartiteGraph, rng: random.Random) -> Iterator[Op]:
    """PATCH, then a small-shape read; after every 5th PATCH also (3,3), (4,4).

    Deletes are drawn from the current edges and inserts from absent
    pairs, so every batch changes the graph and grows the overlay.
    """
    edges = sorted(base.edges())
    index = {edge: i for i, edge in enumerate(edges)}
    step = 0
    while True:
        step += 1
        removes = rng.sample(edges, PATCH_EDGES)
        adds: set = set()
        while len(adds) < PATCH_EDGES:
            pair = (rng.randrange(base.n_left), rng.randrange(base.n_right))
            if pair not in index:
                adds.add(pair)
        for edge in removes:  # swap-remove keeps the list dense in O(1)
            i = index.pop(edge)
            last = edges.pop()
            if i < len(edges):
                edges[i] = last
                index[last] = i
        for edge in sorted(adds):
            index[edge] = len(edges)
            edges.append(edge)
        yield Op("PATCH", "/v1/graphs/mutate", {
            "add_edges": [list(e) for e in sorted(adds)],
            "remove_edges": [list(e) for e in sorted(removes)],
        })
        yield _query("count", "mutate", 2, rng.choice((2, 3)))
        if step % HEAVY_EVERY == 0:
            yield _query("count", "mutate", 3, 3)
            yield _query("count", "mutate", 4, 4)


WORKLOADS = {"hot": _hot, "cold": _cold, "approx": _approx, "mutate": _mutate}


def build(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed)


def graph_payload(name: str, graph: BipartiteGraph) -> dict:
    """The ``POST /v1/graphs`` body registering ``graph`` as ``name``."""
    return {
        "name": name,
        "n_left": graph.n_left,
        "n_right": graph.n_right,
        "edges": [[u, v] for u, v in graph.edges()],
    }


def parse_version(fingerprint: str) -> int:
    """The mutation version inside a ``<base>#v<N>-<digest>`` fingerprint."""
    if "#v" not in fingerprint:
        return 0
    return int(fingerprint.split("#v", 1)[1].split("-", 1)[0])
