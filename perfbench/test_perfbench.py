"""Unit tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

from compare import verdict  # noqa: E402
from layers import self_times  # noqa: E402
from repro.obs.trace import Span  # noqa: E402
from stats import percentile, summarize  # noqa: E402
from workloads import WORKLOADS, build, parse_version  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) is not None


def test_summarize_records_the_sample_count():
    summary = summarize([float(v) for v in range(1, 101)])
    assert summary == {"n": 100, "p50": pytest.approx(50.5),
                       "p90": pytest.approx(90.1), "p99": None}
    assert summarize([]) == {"n": 0, "p50": None, "p90": None, "p99": None}


def _inputs(name: str, seed: int, ops: int = 300) -> tuple:
    workload = build(name, seed)
    graphs = {g: (graph.n_left, graph.n_right, sorted(graph.edges()))
              for g, graph in workload.graphs.items()}
    streams = [
        [(op.method, op.path, op.body) for op in itertools.islice(workload.stream(c), ops)]
        for c in range(workload.connections)
    ]
    warmup = [(op.path, op.body) for op in workload.warmup]
    return graphs, warmup, streams


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_generates_identical_inputs(name):
    assert _inputs(name, 5) == _inputs(name, 5)
    assert _inputs(name, 5) != _inputs(name, 6)


def test_mutate_batches_change_the_graph():
    workload = build("mutate", 3)
    edges = set(workload.graphs["mutate"].edges())
    for op in itertools.islice(workload.stream(0), 200):
        if op.kind != "patch":
            continue
        adds = set(map(tuple, op.body["add_edges"]))
        removes = set(map(tuple, op.body["remove_edges"]))
        assert len(adds) == len(removes) == 16
        assert not adds & edges and removes <= edges
        edges = (edges | adds) - removes


def test_parse_version():
    assert parse_version("abc") == 0
    assert parse_version("abc#v12-0123456789abcdef") == 12


def _span(name, duration, *children):
    span = Span(name, 0.0)
    span.duration = duration
    span.children = list(children)
    return span


def test_self_times_split_a_request_exactly():
    kernel = _span("frontier_expand", 1.0, _span("layer:intersect", 0.5))
    frontier = _span("layer:frontier", 5.0, _span("layer:intersect", 2.0), kernel)
    engine = _span("layer:epivoter", 7.0, _span("traverse", 6.0, frontier))
    root = _span(
        "count", 10.0,
        _span("admission", 1.0, _span("layer:fingerprint.cache_key", 0.25)),
        _span("engine:epivoter", 8.0, engine),
    )
    own, inclusive = self_times(root)
    assert own["executor.admission"] == pytest.approx(0.75)
    assert own["fingerprint.cache_key"] == pytest.approx(0.25)
    assert own["epivoter"] == pytest.approx(2.0)
    assert own["frontier"] == pytest.approx(2.5)
    assert own["intersect"] == pytest.approx(2.5)
    assert own["unattributed"] == pytest.approx(2.0)  # root 1.0 + engine span 1.0
    assert sum(own.values()) == pytest.approx(10.0)
    assert inclusive["epivoter"] == pytest.approx(7.0)


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert verdict(base, [12.0] * 5, "lower", 0.1) == "regressed"
    assert verdict(base, [10.05] * 5, "lower", 0.1) == "same"
    assert verdict(base, [8.0] * 5, "lower", 0.1) == "better"
    assert verdict(base, [8.0] * 5, "higher", 0.1) == "regressed"
    assert verdict([5.0, 10.0, 15.0, 20.0], [12.0] * 4, "lower", 0.1) == "unresolved"
